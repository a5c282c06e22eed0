# Run a bench with --trace and fail unless it exits 0 and writes both
# trace files (the Chrome JSON and its .jsonl twin) non-empty.
#
#   cmake -DBENCH=<exe> -DARGS="<space-separated flags>" -DTRACE=<path>
#         -P check_trace.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
file(REMOVE "${TRACE}" "${TRACE}.jsonl")
execute_process(COMMAND "${BENCH}" ${args} --trace "${TRACE}"
                RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}")
endif()
foreach(path "${TRACE}" "${TRACE}.jsonl")
  if(NOT EXISTS "${path}")
    message(FATAL_ERROR "--trace wrote no ${path}")
  endif()
  file(SIZE "${path}" size)
  if(size EQUAL 0)
    message(FATAL_ERROR "--trace wrote an empty ${path}")
  endif()
endforeach()
