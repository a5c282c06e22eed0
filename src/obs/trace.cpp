#include "obs/trace.hpp"

#include <cinttypes>
#include <cstdio>

namespace qlink::obs {

namespace {

/// JSON-escape into `out` (quotes included).
void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

/// Nanoseconds as decimal microseconds ("123.456"), exactly — the
/// Chrome format's ts/dur unit is microseconds, and an integer
/// nanosecond remainder keeps the rendering lossless and deterministic.
void append_us(std::string& out, sim::SimTime ns) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                ns % 1000);
  out += buf;
}

void append_args(std::string& out, const std::vector<Tracer::Arg>& args) {
  out += "\"args\":{";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ',';
    append_quoted(out, args[i].key);
    out += ':';
    out += args[i].value;
  }
  out += '}';
}

}  // namespace

Tracer::Arg Tracer::str_arg(std::string key, const std::string& value) {
  std::string rendered;
  append_quoted(rendered, value);
  return Arg{std::move(key), std::move(rendered)};
}

Tracer::Arg Tracer::num_arg(std::string key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return Arg{std::move(key), buf};
}

Tracer::Arg Tracer::num_arg(std::string key, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return Arg{std::move(key), buf};
}

void Tracer::complete(TraceId trace, const char* cat, const char* name,
                      sim::SimTime start, sim::SimTime end,
                      std::vector<Arg> args) {
  events_.push_back(Event{Phase::kComplete, trace, 0, cat, name, start,
                          end - start, std::move(args)});
}

void Tracer::instant(TraceId trace, const char* cat, const char* name,
                     sim::SimTime at, std::vector<Arg> args) {
  events_.push_back(
      Event{Phase::kInstant, trace, 0, cat, name, at, 0, std::move(args)});
}

std::uint64_t Tracer::async_begin(TraceId trace, const char* cat,
                                  const char* name, sim::SimTime at,
                                  std::vector<Arg> args) {
  const std::uint64_t id = next_async_id_++;
  events_.push_back(
      Event{Phase::kAsyncBegin, trace, id, cat, name, at, 0,
            std::move(args)});
  return id;
}

void Tracer::async_instant(std::uint64_t id, TraceId trace, const char* cat,
                           const char* name, sim::SimTime at,
                           std::vector<Arg> args) {
  events_.push_back(Event{Phase::kAsyncInstant, trace, id, cat, name, at, 0,
                          std::move(args)});
}

void Tracer::async_end(std::uint64_t id, TraceId trace, const char* cat,
                       const char* name, sim::SimTime at) {
  events_.push_back(Event{Phase::kAsyncEnd, trace, id, cat, name, at, 0, {}});
}

char Tracer::phase_char(Phase p) {
  switch (p) {
    case Phase::kComplete:
      return 'X';
    case Phase::kInstant:
      return 'i';
    case Phase::kAsyncBegin:
      return 'b';
    case Phase::kAsyncInstant:
      return 'n';
    case Phase::kAsyncEnd:
      return 'e';
  }
  return '?';
}

void Tracer::append_event(std::string& out, const Event& e, bool chrome) {
  char buf[64];
  out += "{\"name\":";
  append_quoted(out, e.name);
  out += ",\"cat\":";
  append_quoted(out, e.cat);
  out += ",\"ph\":\"";
  out += phase_char(e.phase);
  out += '"';
  if (chrome) {
    // The request's trace id is its lane: one Perfetto track per
    // request. Async hop spans group by (pid, cat, id).
    out += ",\"ts\":";
    append_us(out, e.ts);
    if (e.phase == Phase::kComplete) {
      out += ",\"dur\":";
      append_us(out, e.dur);
    }
    std::snprintf(buf, sizeof(buf), ",\"pid\":1,\"tid\":%" PRIu64, e.trace);
    out += buf;
    if (e.async_id != 0) {
      std::snprintf(buf, sizeof(buf), ",\"id\":%" PRIu64, e.async_id);
      out += buf;
    }
    if (e.phase == Phase::kInstant) out += ",\"s\":\"t\"";
  } else {
    std::snprintf(buf, sizeof(buf), ",\"trace\":%" PRIu64 ",\"t\":%" PRId64,
                  e.trace, e.ts);
    out += buf;
    if (e.phase == Phase::kComplete) {
      std::snprintf(buf, sizeof(buf), ",\"dur\":%" PRId64, e.dur);
      out += buf;
    }
    if (e.async_id != 0) {
      std::snprintf(buf, sizeof(buf), ",\"id\":%" PRIu64, e.async_id);
      out += buf;
    }
  }
  if (!e.args.empty()) {
    out += ',';
    append_args(out, e.args);
  }
  out += '}';
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"traceEvents\":[\n";
  // Name the one process so Perfetto shows "requests" instead of
  // "Process 1".
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
      "\"args\":{\"name\":\"requests\"}}";
  for (const Event& e : events_) {
    out += ",\n";
    append_event(out, e, /*chrome=*/true);
  }
  out += "\n]}\n";
  return out;
}

std::string Tracer::jsonl() const {
  std::string out;
  for (const Event& e : events_) {
    append_event(out, e, /*chrome=*/false);
    out += '\n';
  }
  return out;
}

}  // namespace qlink::obs
