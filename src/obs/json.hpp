#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

/// \file json.hpp
/// Internal number, string and field writers shared by the obs JSON
/// emitters (Tracer, Monitor, NetState, Snapshot). Doubles print with
/// %.17g, so every value round-trips exactly; counters print as
/// unsigned decimals; strings are JSON-escaped.

namespace qlink::obs::json {

inline void append_num(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

inline void append_num(std::string& out, std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out += buf;
}

/// `v` as append_num writes it (for messages).
template <typename T>
std::string str(T v) {
  std::string out;
  append_num(out, v);
  return out;
}

/// `s` JSON-escaped between quotes.
inline void append_quoted(std::string& out, std::string_view s) {
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

/// `"run":"<label>",` ahead of a record's fields; nothing for an empty
/// label.
inline void append_run(std::string& out, const std::string& run) {
  if (run.empty()) return;
  out += "\"run\":";
  append_quoted(out, run);
  out += ',';
}

/// `"key":value`, with no separator before or after.
inline void append_field(std::string& out, const char* key, double v) {
  out += '"';
  out += key;
  out += "\":";
  append_num(out, v);
}

inline void append_field(std::string& out, const char* key,
                         std::uint64_t v) {
  out += '"';
  out += key;
  out += "\":";
  append_num(out, v);
}

}  // namespace qlink::obs::json
