#include "obs/trace.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "obs/json.hpp"

namespace qlink::obs {

namespace {

using json::append_quoted;

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
  std::string rendered;
  json::append_num(rendered, value);
  return Arg{std::move(key), std::move(rendered)};
}

Tracer::Arg Tracer::num_arg(std::string key, std::uint64_t value) {
  std::string rendered;
  json::append_num(rendered, value);
  return Arg{std::move(key), std::move(rendered)};
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

std::vector<std::string> Tracer::violations() const {
  std::vector<std::string> out;
  const auto fail = [&](std::size_t i, const std::string& what) {
    out.push_back("trace event " + std::to_string(i) + " (" +
                  events_[i].name + "): " + what);
  };

  // Per event: what a trace viewer needs to place it.
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    if (*e.name == '\0') fail(i, "empty name");
    if (*e.cat == '\0') fail(i, "empty cat");
    if (e.ts < 0) fail(i, "negative ts " + std::to_string(e.ts));
    if (e.dur < 0) fail(i, "negative dur " + std::to_string(e.dur));
  }

  // Async balance: each begin has exactly one end with its (cat, id),
  // in order and not earlier in time; instants name a begun id.
  constexpr std::size_t kEnded = static_cast<std::size_t>(-1);
  using Key = std::pair<std::string_view, std::uint64_t>;
  std::map<Key, std::size_t> begun;  // -> its open begin, or kEnded
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    const Key key{e.cat, e.async_id};
    const auto async_fail = [&](const std::string& what) {
      fail(i, "async id (" + std::string(e.cat) + ", " +
                  std::to_string(e.async_id) + ") " + what);
    };
    if (e.phase == Phase::kAsyncBegin) {
      const auto [it, fresh] = begun.try_emplace(key, i);
      if (!fresh && it->second != kEnded) async_fail("begun twice");
      it->second = i;
    } else if (e.phase == Phase::kAsyncInstant) {
      if (begun.count(key) == 0) async_fail("never begun");
    } else if (e.phase == Phase::kAsyncEnd) {
      const auto it = begun.find(key);
      if (it == begun.end() || it->second == kEnded) {
        async_fail("ended without an open begin");
        continue;
      }
      const sim::SimTime begin_ts = events_[it->second].ts;
      if (e.ts < begin_ts) {
        async_fail("ends at " + std::to_string(e.ts) + " before its begin at " +
                   std::to_string(begin_ts));
      }
      it->second = kEnded;
    }
  }
  for (const auto& [key, i] : begun) {
    if (i != kEnded) fail(i, "async begin never ended");
  }

  // Span nesting per lane: sorted by start, longest first, each "X"
  // span lies inside the innermost open span or after it.
  std::vector<std::size_t> spans;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (events_[i].phase == Phase::kComplete) spans.push_back(i);
  }
  std::sort(spans.begin(), spans.end(), [this](std::size_t a, std::size_t b) {
    const Event& x = events_[a];
    const Event& y = events_[b];
    if (x.trace != y.trace) return x.trace < y.trace;
    if (x.ts != y.ts) return x.ts < y.ts;
    if (x.dur != y.dur) return x.dur > y.dur;
    return a < b;
  });
  std::vector<std::size_t> open;  // the enclosing spans, outermost first
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const Event& e = events_[spans[k]];
    if (k > 0 && events_[spans[k - 1]].trace != e.trace) open.clear();
    while (!open.empty() &&
           e.ts >= events_[open.back()].ts + events_[open.back()].dur) {
      open.pop_back();
    }
    if (!open.empty()) {
      const Event& outer = events_[open.back()];
      if (e.ts + e.dur > outer.ts + outer.dur) {
        fail(spans[k], "span [" + std::to_string(e.ts) + ", " +
                           std::to_string(e.ts + e.dur) +
                           "] partially overlaps \"" + outer.name + "\" [" +
                           std::to_string(outer.ts) + ", " +
                           std::to_string(outer.ts + outer.dur) +
                           "] on lane " + std::to_string(e.trace));
        continue;
      }
    }
    open.push_back(spans[k]);
  }
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
