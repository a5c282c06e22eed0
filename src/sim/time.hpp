#pragma once

#include <cstdint>

/// \file time.hpp
/// Simulation time base for the qlink discrete-event engine.
///
/// All simulation timestamps are integral nanoseconds. An integral base
/// keeps event ordering exact (no floating-point ties) and covers
/// +/- 292 years of simulated time in an int64_t, far beyond the hours of
/// simulated time the paper's longest runs reach.

namespace qlink::sim {

/// Absolute simulation time or a duration, in nanoseconds.
using SimTime = std::int64_t;

namespace duration {

inline constexpr SimTime nanoseconds(std::int64_t n) { return n; }
inline constexpr SimTime microseconds(double us) {
  return static_cast<SimTime>(us * 1e3);
}
inline constexpr SimTime milliseconds(double ms) {
  return static_cast<SimTime>(ms * 1e6);
}
inline constexpr SimTime seconds(double s) {
  return static_cast<SimTime>(s * 1e9);
}

}  // namespace duration

/// Convert a simulation time to floating-point seconds (for reporting).
inline constexpr double to_seconds(SimTime t) {
  return static_cast<double>(t) * 1e-9;
}

}  // namespace qlink::sim
