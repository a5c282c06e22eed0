#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

/// \file json.hpp
/// Internal number and field writers shared by the obs JSON emitters
/// (Monitor, NetState, Snapshot). Doubles print with %.17g, so every
/// value round-trips exactly; counters print as unsigned decimals.

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
