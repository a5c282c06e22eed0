#pragma once

#include <cstdint>
#include <cstdio>
#include <string>

#include "metrics/collector.hpp"
#include "metrics/histogram.hpp"
#include "sim/time.hpp"

/// \file monitor.hpp
/// Live run monitor (ISSUE 7): deterministic interval time-series
/// telemetry over a running simulation, plus a stall watchdog.
///
/// A minutes-long run is a black box until its end-of-run Snapshot; the
/// Monitor streams one JSONL record per fixed sim-time interval instead
/// — counter *deltas* (deliveries, engine events, router outcomes),
/// rate gauges (deliveries/s, events/s, admission backlog, heap depth),
/// per-interval histogram deltas (count + p99 via
/// Histogram::count_since / percentile_since), and an ETA/progress
/// estimate against a configured request target.
///
/// Same observation contract as the Tracer (ISSUE 6): the monitor is
/// keyed by *simulation* time only, never schedules events, and never
/// consumes randomness — it is polled from already-existing control
/// points (the bench run loops, WorkloadDriver::on_cycle), so attaching
/// one cannot perturb a seeded trajectory, and two same-seed runs write
/// byte-identical JSONL.
///
/// Sampling semantics: poll() emits a record whenever at least one full
/// interval has elapsed since the last record. Sparse polling coalesces
/// the elapsed intervals into a single record whose `dt` is the covered
/// span (a multiple of the interval); values are sampled at the poll
/// that crosses the boundary and stamped at the boundary time `t`.
/// finish() flushes the trailing partial interval (its `dt` may be
/// shorter) and appends a `"final": true` summary line whose totals
/// equal the per-record delta sums — the invariant
/// tools/stream_check.py enforces.
///
/// Stall watchdog: a record whose span covers at least one full
/// interval, delivered zero pairs, and sampled a positive admission
/// backlog is *starved*; once MonitorConfig::stall_consecutive starved
/// intervals accumulate back-to-back (a coalesced record counts each
/// full interval it covers), records are flagged `"stalled": true`,
/// counted in stalled_intervals(), and mirrored as `warn` instants on
/// the Tracer's global lane (when one is attached). Any interval with
/// a delivery or an empty backlog resets the run. Each record also
/// carries the Collector's open request count and the oldest open
/// request's age, so leaked `Collector::open_` entries surface instead
/// of growing silently.

namespace qlink::routing {
class Router;
}  // namespace qlink::routing

namespace qlink::sim {
class Simulator;
}  // namespace qlink::sim

namespace qlink::obs {

class Tracer;

struct MonitorConfig {
  /// Record cadence in sim time (> 0).
  sim::SimTime interval = sim::duration::milliseconds(100);
  /// Label stamped into every record as "run" (empty = omitted); lets
  /// several monitored runs share one JSONL file (stream_check.py
  /// validates each label group independently).
  std::string run;
  /// Expected request completions; > 0 enables the progress / eta_s
  /// fields (completions from the Router when attached, else from the
  /// Collector's per-kind counts).
  std::uint64_t target_requests = 0;
  /// Stall warnings land here as `warn` instants on the global lane
  /// (trace 0); null = no trace mirroring.
  Tracer* tracer = nullptr;
  /// Consecutive starved intervals (zero deliveries, backlog > 0)
  /// before the watchdog flags — the health-check debounce (>= 1).
  /// 1 flags immediately (deterministic corridor runs, unit tests);
  /// contended random-traffic runs set it higher so one statistically
  /// quiet interval is not a stall.
  std::uint64_t stall_consecutive = 1;
};

class Monitor {
 public:
  /// Throws std::invalid_argument when config.interval <= 0 or
  /// config.stall_consecutive == 0.
  Monitor(const sim::Simulator& simulator,
          const metrics::Collector& collector, MonitorConfig config = {});

  /// Admission backlog + submitted/completed/failed come from here;
  /// without a router those record fields are omitted and the watchdog
  /// never fires (backlog is unknowable).
  void attach_router(const routing::Router* router) { router_ = router; }

  /// Emit a record for any interval boundary crossed since the last
  /// one. Cheap when no boundary was crossed (one time comparison);
  /// call from existing loops — never from a scheduled event.
  void poll();

  /// Flush the trailing partial interval and append the final summary
  /// line. Idempotent; poll() after finish() is a no-op.
  void finish();

  std::uint64_t intervals() const noexcept { return intervals_; }
  std::uint64_t stalled_intervals() const noexcept {
    return stalled_intervals_;
  }
  /// Highest admission backlog sampled at any record emission.
  std::uint64_t peak_backlog() const noexcept { return peak_backlog_; }
  /// Sum of the emitted per-record delivery deltas.
  std::uint64_t total_deliveries() const noexcept {
    return total_deliveries_;
  }

  const std::string& jsonl() const noexcept { return jsonl_; }
  void write_jsonl(std::FILE* f) const;

 private:
  struct Cumulative {
    std::uint64_t deliveries = 0;
    std::uint64_t events = 0;
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    metrics::Histogram request_latency;
    metrics::Histogram pair_latency;
    metrics::Histogram admission_wait;
  };

  Cumulative sample() const;
  std::uint64_t completed_total() const;
  std::size_t backlog() const;
  /// One record covering (last_t_, t]; `t` must be > last_t_.
  void emit(sim::SimTime t);

  const sim::Simulator& sim_;
  const metrics::Collector& collector_;
  const routing::Router* router_ = nullptr;
  MonitorConfig config_;

  sim::SimTime start_t_ = 0;
  sim::SimTime last_t_ = 0;
  Cumulative prev_;
  std::uint64_t intervals_ = 0;
  std::uint64_t stall_run_ = 0;  // consecutive starved intervals
  std::uint64_t stalled_intervals_ = 0;
  std::uint64_t peak_backlog_ = 0;
  std::uint64_t total_deliveries_ = 0;
  std::uint64_t total_events_ = 0;
  bool finished_ = false;
  std::string jsonl_;
};

}  // namespace qlink::obs
