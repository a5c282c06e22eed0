#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

/// \file trace.hpp
/// Deterministic request-lifecycle tracing (ISSUE 6).
///
/// A Tracer records spans and instant events keyed by *simulation* time
/// only — never wall clock — so two same-seed runs produce byte-identical
/// traces. Layers hold a `Tracer*` that is null by default; every
/// recording site is guarded by that one pointer check, which keeps the
/// disabled cost near zero and (since the tracer never schedules events
/// or consumes randomness) enabling it cannot perturb a trajectory.
///
/// Event model (a subset of the Chrome trace-event format, loadable in
/// Perfetto via chrome://tracing JSON):
///   - complete spans ("X"): a named duration on a request's lane
///     (pid 1, tid = trace_id). Spans on one lane must nest properly —
///     the Router only emits request-lifecycle spans there (the request
///     envelope, its admission wait, its deferral window), which nest
///     by construction.
///   - async spans ("b"/"n"/"e"): per-hop CREATE -> OK progress. Hops
///     of one request overlap freely in time, so they get async
///     semantics (matched by category + id, no nesting constraint);
///     each hop's matched link pairs are async instants ("n") on its
///     span.
///   - instants ("i"): submit / reroute / abandon / deliver /
///     EGP-error marks. Unattributable events land on tid 0.
///
/// violations() checks that the recorded stream keeps this model:
/// balanced async spans, instants on begun ids, nested lane spans.
/// obs::Session::finish collects its findings, so every traced bench
/// run checks its own trace.
///
/// Two export surfaces over the same recorded stream: Chrome trace
/// JSON (`{"traceEvents": [...]}`, ts/dur in microseconds with
/// nanosecond decimals) and a compact JSONL stream (one event per line,
/// times in integer nanoseconds) for diffing and byte-identity tests.
///
/// trace_id allocation is a plain counter on the tracer, stamped into
/// E2eRequest::trace_id at first submission and carried through
/// re-routing resubmissions, so a rerouted request stays one trace.

namespace qlink::obs {

using TraceId = std::uint64_t;

class Tracer {
 public:
  /// One pre-rendered argument: `value` must already be valid JSON
  /// (a number, or a quoted+escaped string — see str_arg/num_arg).
  struct Arg {
    std::string key;
    std::string value;
  };
  static Arg str_arg(std::string key, const std::string& value);
  static Arg num_arg(std::string key, double value);
  static Arg num_arg(std::string key, std::uint64_t value);

  /// Monotonic per-tracer trace-id source (ids start at 1; 0 means
  /// "no trace assigned" everywhere trace ids travel).
  TraceId new_trace() { return next_trace_id_++; }

  /// A finished span [start, end] on `trace`'s lane.
  void complete(TraceId trace, const char* cat, const char* name,
                sim::SimTime start, sim::SimTime end,
                std::vector<Arg> args = {});

  /// An instant mark on `trace`'s lane (trace 0 = the global lane).
  void instant(TraceId trace, const char* cat, const char* name,
               sim::SimTime at, std::vector<Arg> args = {});

  /// Async span begin; the returned id ties instants and the end to it.
  std::uint64_t async_begin(TraceId trace, const char* cat,
                            const char* name, sim::SimTime at,
                            std::vector<Arg> args = {});
  void async_instant(std::uint64_t id, TraceId trace, const char* cat,
                     const char* name, sim::SimTime at,
                     std::vector<Arg> args = {});
  void async_end(std::uint64_t id, TraceId trace, const char* cat,
                 const char* name, sim::SimTime at);

  std::size_t num_events() const noexcept { return events_.size(); }

  /// Chrome trace-event JSON object ({"traceEvents": [...]}).
  std::string chrome_json() const;
  /// Compact JSONL: one event per line, integer-nanosecond times.
  std::string jsonl() const;

  /// The recorded stream's broken rules, one message each; empty when
  /// every event has a name, a category and a non-negative ts (and an
  /// "X" span a non-negative dur), every async begin has exactly one
  /// end with its (cat, id), never earlier in order or time, every
  /// async instant names a begun (cat, id), and the "X" spans of each
  /// lane nest. Scans the recorded events.
  std::vector<std::string> violations() const;

 private:
  enum class Phase : std::uint8_t {
    kComplete,      // "X"
    kInstant,       // "i"
    kAsyncBegin,    // "b"
    kAsyncInstant,  // "n"
    kAsyncEnd,      // "e"
  };

  struct Event {
    Phase phase;
    TraceId trace = 0;
    std::uint64_t async_id = 0;
    const char* cat = "";
    const char* name = "";
    sim::SimTime ts = 0;
    sim::SimTime dur = 0;  // kComplete only
    std::vector<Arg> args;
  };

  static char phase_char(Phase p);
  static void append_event(std::string& out, const Event& e, bool chrome);

  std::vector<Event> events_;
  TraceId next_trace_id_ = 1;
  std::uint64_t next_async_id_ = 1;
};

}  // namespace qlink::obs
