#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "metrics/collector.hpp"
#include "obs/session.hpp"
#include "workload/workload.hpp"

/// \file common.hpp
/// What the bench binaries share. Every bench (the paper scenarios of
/// bench_paper --scenario ..., routing, admission, workload scale,
/// chain scaling, micro-engine) hands everything but its scenarios to
/// a Harness:
///
///   bench::Harness h("grid_routing", "Grid routing run report");
///   h.parse(argc, argv, "[--rows R] ...", [&](const std::string& arg,
///                                             auto next) { ... });
///   h.columns({{"scenario", "scenario", -10}, ...});
///   for each scenario:
///     obs::Session session(collector, {.run = "grid"}, h.traced());
///     session.attach(router);  ... run, poll, finish ...
///     bench::Row row;  row.text("scenario", "grid").count(...) ...;
///     h.add(session, "grid (8x8, hops cost)");  // streams + report
///     h.add(std::move(row));                     // table line + JSON
///   h.write(summary_row);
///
/// Row/file contract:
///  - A Row is an ordered list of keys, each rendered once (a key a
///    table column names but the row lacks prints "-"). The JSON
///    file and the stdout table print the same rendered text, so a
///    field is written in exactly one place.
///  - --json PATH (default BENCH_<bench>.json; "-" disables) receives
///    {"bench", "rows": [...], <summary keys>}.
///  - --monitor / --netstate receive every added session's JSONL
///    stream, concatenated in run order (each record carries its
///    session's "run" label); --report receives each session's
///    Markdown section under the harness's report title; --trace
///    receives the traced session's Chrome trace at PATH plus its JSONL
///    at PATH.jsonl. Observing never perturbs a run, so these files
///    replay byte-for-byte per seed.
///  - A file that cannot be written is a warning, not a failure.

namespace qlink::bench {

/// A flag's value in argv: `next()` yields the raw text, `next.u64()`
/// and `next.real()` parse all of it. A missing or malformed value
/// calls `usage`, which must not return.
template <typename Usage>
class FlagValue {
 public:
  FlagValue(int argc, char** argv, int& i, const Usage& usage)
      : argc_(argc), argv_(argv), i_(i), usage_(usage) {}

  const char* operator()() const {
    if (i_ + 1 >= argc_) usage_();
    return argv_[++i_];
  }

  /// Decimal digits only: no sign, no trailing text, no overflow.
  std::uint64_t u64() const {
    const char* text = (*this)();
    char* end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (!std::isdigit(static_cast<unsigned char>(*text)) || *end != '\0' ||
        errno == ERANGE) {
      usage_();
    }
    return value;
  }

  /// A finite number with no trailing text.
  double real() const {
    const char* text = (*this)();
    char* end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value)) usage_();
    return value;
  }

 private:
  int argc_;
  char** argv_;
  int& i_;
  const Usage& usage_;
};

/// Shared command-line flags: every bench accepts the same six flags
/// with the same spelling and semantics, or only --json when
/// `json_only` (bench_paper, whose scenarios fix their seeds and
/// observe nothing).
struct Args {
  bool json_only = false;
  std::uint64_t seed = 7;
  std::string json_path;      // "-" = no JSON file
  std::string trace_path;     // empty = tracing off
  std::string monitor_path;   // empty = keep records in memory only
  std::string netstate_path;  // empty = keep records in memory only
  std::string report_path;    // empty = no Markdown report

  static constexpr const char* kUsage =
      "[--seed K] [--json PATH|-] [--trace PATH] [--monitor PATH] "
      "[--netstate PATH] [--report PATH]";

  /// Consume argv[i] (and its value) if it is a shared flag; advances
  /// i past the value and returns true on success. `usage` must not
  /// return (print help and exit).
  template <typename Usage>
  bool consume(int argc, char** argv, int& i, const Usage& usage) {
    const std::string arg = argv[i];
    const FlagValue next(argc, argv, i, usage);
    if (arg == "--json") {
      json_path = next();
    } else if (json_only) {
      return false;
    } else if (arg == "--seed") {
      seed = next.u64();
    } else if (arg == "--trace") {
      trace_path = next();
    } else if (arg == "--monitor") {
      monitor_path = next();
    } else if (arg == "--netstate") {
      netstate_path = next();
    } else if (arg == "--report") {
      report_path = next();
    } else {
      return false;
    }
    return true;
  }
};

/// Wall-clock seconds since construction: the one timer bench legs use.
class Stopwatch {
 public:
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_ = Clock::now();
};

/// `count / seconds`, 0 for an empty span.
inline double per_second(double count, double seconds) {
  return seconds > 0.0 ? count / seconds : 0.0;
}

/// One bench row, or a run's summary: ordered key/value pairs, each
/// value rendered once as JSON.
class Row {
 public:
  Row& text(const char* key, std::string_view value) {
    std::string quoted = "\"";
    quoted.append(value).push_back('"');
    return add(key, std::move(quoted), NAN, true);
  }
  Row& count(const char* key, std::uint64_t value) {
    return add(key, std::to_string(value), static_cast<double>(value));
  }
  /// Fixed-point with `decimals` digits after the point.
  Row& num(const char* key, double value, int decimals) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return add(key, buf, value);
  }
  /// Scientific notation with `digits` after the point, for values
  /// that fixed-point would print as zeros.
  Row& sci(const char* key, double value, int digits) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*e", digits, value);
    return add(key, buf, value);
  }
  /// A pre-rendered JSON value (an object, null, ...).
  Row& json(const char* key, std::string value) {
    return add(key, std::move(value), NAN);
  }

  /// The unrounded number stored under `key` (NaN when absent or not a
  /// number): derived scalars are computed from these, not from text.
  double get(std::string_view key) const {
    const Field* f = find(key);
    return f != nullptr ? f->number : NAN;
  }

  /// `{"key": value, ...}` in insertion order.
  std::string json() const {
    std::string out = "{";
    for (const Field& f : fields_) {
      if (out.size() > 1) out += ", ";
      out += "\"" + f.key + "\": " + f.value;
    }
    return out + "}";
  }

  /// The value as a table cell: strings unquoted.
  std::string cell(std::string_view key) const {
    const Field* f = find(key);
    if (f == nullptr) return "-";
    return f->quoted ? f->value.substr(1, f->value.size() - 2) : f->value;
  }

  bool empty() const noexcept { return fields_.empty(); }
  /// `"key": value` lines for a top-level object, comma-joined.
  std::string members(const char* indent) const {
    std::string out;
    for (const Field& f : fields_) {
      if (!out.empty()) out += ",\n";
      out += indent + ("\"" + f.key + "\": ") + f.value;
    }
    return out;
  }

 private:
  struct Field {
    std::string key;
    std::string value;
    double number;
    bool quoted;
  };

  Row& add(const char* key, std::string value, double number,
           bool quoted = false) {
    fields_.push_back({key, std::move(value), number, quoted});
    return *this;
  }
  const Field* find(std::string_view key) const {
    for (const Field& f : fields_) {
      if (f.key == key) return &f;
    }
    return nullptr;
  }

  std::vector<Field> fields_;
};

/// Everything a bench main repeats: argument parsing, the stdout
/// tables, the observation-session streams, and every output file (see
/// the file comment for the contract).
class Harness {
 public:
  /// One stdout table column: a row key, its header label, and printf
  /// width (negative = left-aligned).
  struct Column {
    const char* key;
    const char* label;
    int width;
  };

  /// `bench` names the JSON and its default path BENCH_<bench>.json.
  /// `report_title` heads the --report file, each session's section
  /// followed by a blank line; empty writes the sections as they are.
  explicit Harness(std::string bench, std::string report_title = "")
      : bench_(std::move(bench)), report_title_(std::move(report_title)) {
    args.json_path = "BENCH_" + bench_ + ".json";
  }

  Args args;

  /// Parse argv: the shared flags, then `flag(arg, next)` for the
  /// bench's own (`next` is the flag's FlagValue). A flag `flag`
  /// rejects, or a value that does not parse, prints usage — the
  /// bench's `usage` text plus the shared flags — and exits 2.
  template <typename Flag>
  void parse(int argc, char** argv, const char* usage, Flag&& flag) {
    argv0_ = argv[0];
    usage_ = usage;
    const auto exit_usage = [this] { this->usage(); };
    for (int i = 1; i < argc; ++i) {
      if (args.consume(argc, argv, i, exit_usage)) continue;
      const std::string arg = argv[i];
      if (!flag(arg, FlagValue(argc, argv, i, exit_usage))) this->usage();
    }
  }

  [[noreturn]] void usage() const {
    std::fprintf(stderr, "usage: %s %s %s\n", argv0_.c_str(), usage_.c_str(),
                 args.json_only ? "[--json PATH|-]" : Args::kUsage);
    std::exit(2);
  }

  /// Whether sessions should trace (--trace names a file).
  bool traced() const noexcept {
    return !args.trace_path.empty() && args.trace_path != "-";
  }

  /// Declare the stdout table and print its header line; a later call
  /// starts the next table.
  void columns(std::vector<Column> columns) {
    columns_ = std::move(columns);
    for (const Column& c : columns_) std::printf("%*s ", c.width, c.label);
    std::printf("\n");
  }

  /// A finished row: printed as a table line and kept for the JSON.
  const Row& add(Row row) {
    for (const Column& c : columns_) {
      std::printf("%*s ", c.width, row.cell(c.key).c_str());
    }
    std::printf("\n");
    rows_.push_back(std::move(row));
    return rows_.back();
  }

  /// A finished session: its streams and report section (titled
  /// `title`) join the output files, its scalars the run totals.
  void add(const obs::Session& session, const std::string& title) {
    ++sessions_;
    monitor_ += session.monitor_jsonl();
    netstate_ += session.netstate_jsonl();
    report_ += session.report(title);
    if (!report_title_.empty()) report_ += '\n';
    if (const obs::Tracer* tracer = session.tracer()) {
      trace_chrome_ = tracer->chrome_json();
      trace_jsonl_ = tracer->jsonl();
    }
    stalled_intervals_ += session.stalled_intervals();
    peak_backlog_ = std::max(peak_backlog_, session.peak_backlog());
    max_utilization_ = std::max(max_utilization_, session.max_utilization());
  }

  const std::vector<Row>& rows() const noexcept { return rows_; }
  /// Summed over sessions.
  std::uint64_t stalled_intervals() const noexcept {
    return stalled_intervals_;
  }
  /// Maxed over sessions.
  std::uint64_t peak_backlog() const noexcept { return peak_backlog_; }
  double max_utilization() const noexcept { return max_utilization_; }

  /// Write every requested file; `summary` holds the JSON's top-level
  /// keys after "rows".
  void write(const Row& summary = {}) const {
    std::string json = "{\n  \"bench\": \"" + bench_ + "\",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      json += "    " + rows_[i].json() + (i + 1 < rows_.size() ? ",\n" : "\n");
    }
    json += summary.empty() ? "  ]\n}\n"
                            : "  ],\n" + summary.members("  ") + "\n}\n";
    write_file(args.json_path, json);
    if (!trace_chrome_.empty()) {
      write_file(args.trace_path, trace_chrome_);
      write_file(args.trace_path + ".jsonl", trace_jsonl_);
    }
    if (sessions_ == 0) return;
    write_file(args.monitor_path, monitor_);
    write_file(args.netstate_path, netstate_);
    write_file(args.report_path,
               report_title_.empty() ? report_
                                     : "# " + report_title_ + "\n\n" + report_);
  }

  /// Write `text` to `path`; empty or "-" writes nothing.
  static void write_file(const std::string& path, const std::string& text) {
    if (path.empty() || path == "-") return;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  }

 private:
  std::string bench_;
  std::string report_title_;
  std::string argv0_ = "bench";
  std::string usage_;
  std::vector<Column> columns_;
  std::vector<Row> rows_;
  std::size_t sessions_ = 0;
  std::string monitor_;
  std::string netstate_;
  std::string report_;
  std::string trace_chrome_;
  std::string trace_jsonl_;
  std::uint64_t stalled_intervals_ = 0;
  std::uint64_t peak_backlog_ = 0;
  double max_utilization_ = 0.0;
};

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

}  // namespace qlink::bench
