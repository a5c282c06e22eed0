#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics/edge_stats.hpp"
#include "sim/time.hpp"

/// \file netstate.hpp
/// Network-state sampler (ISSUE 8): deterministic interval time-series
/// of *per-edge* network state over a running simulation — the spatial
/// companion to the obs::Monitor's global counters.
///
/// Each record answers "where is the network busy right now": per-edge
/// lease utilization (fraction of the interval covered by the union of
/// active lease windows, in [0, 1] by construction — see
/// metrics::EdgeStats::busy_seconds), contention deltas (blocked
/// arrivals, lease placements), link-layer CREATE attempt and per-hop
/// delivery deltas, and the interval's hottest edges. The final record
/// carries the full per-edge table, per-node swap/terminal activity,
/// the deterministic Space-Saving hot-edge ranking, and totals that
/// tools/stream_check.py reconciles against the per-record delta
/// sums and the metrics::Collector's request-level counters.
///
/// Same observation contract as Monitor / Tracer: keyed by *sim* time
/// only, never schedules events, never consumes randomness. It is
/// polled from already-existing control points, so attaching one
/// cannot perturb a seeded trajectory and two same-seed runs write
/// byte-identical JSONL on either qstate backend.
///
/// Sampling semantics follow Monitor: poll() emits one record whenever
/// at least one full interval elapsed since the last record, coalescing
/// sparse polls into a single record whose `dt` is the covered span;
/// finish() flushes the trailing partial interval and appends a
/// `"final": true` summary line.
///
/// Cost: a record visits only the edges EdgeStats reports touched since
/// the last record plus the edges whose lease windows were still open
/// after it; every other edge contributes exact zeros. Only the
/// constructor and finish() read every edge. A NetState holds its
/// EdgeStats' touched-edge feed, so each EdgeStats serves one NetState.

namespace qlink::metrics {
class Collector;
}

namespace qlink::routing {
class Graph;
}

namespace qlink::sim {
class Simulator;
}

namespace qlink::obs {

struct NetStateConfig {
  /// Record cadence in sim time (> 0).
  sim::SimTime interval = sim::duration::milliseconds(100);
  /// Label stamped into every record as "run" (empty = omitted); lets
  /// several runs share one JSONL file (stream_check.py validates
  /// each label group independently).
  std::string run;
};

class NetState {
 public:
  /// Hot-edge list length in interval records and in the final
  /// sketch-backed ranking.
  static constexpr std::size_t kTopK = 8;

  /// Throws std::invalid_argument when config.interval <= 0 and
  /// std::logic_error when another NetState already samples `stats`.
  NetState(const sim::Simulator& simulator, const metrics::EdgeStats& stats,
           NetStateConfig config = {});
  ~NetState();
  NetState(const NetState&) = delete;
  NetState& operator=(const NetState&) = delete;

  /// Adds request-level counters to the final record so the validator
  /// can reconcile the per-edge totals against the Collector's.
  void attach_collector(const metrics::Collector* collector) {
    collector_ = collector;
  }
  /// Names edge endpoints (`a`, `b`) in records; omitted when absent.
  void attach_graph(const routing::Graph* graph) { graph_ = graph; }

  /// Emit a record for any interval boundary crossed since the last
  /// one. Cheap when no boundary was crossed; call from existing loops
  /// — never from a scheduled event.
  void poll();

  /// Flush the trailing partial interval and append the final summary
  /// line. Idempotent; poll() after finish() is a no-op.
  void finish();

  std::uint64_t intervals() const noexcept { return intervals_; }
  /// Highest per-edge utilization observed in any emitted record or in
  /// the final full-run table — the bench gate's
  /// `hot_edge_max_utilization` scalar ( <= 1 by construction).
  double max_utilization() const noexcept { return max_utilization_; }

  const std::string& jsonl() const noexcept { return jsonl_; }
  void write_jsonl(std::FILE* f) const;

 private:
  struct EdgeSnap {
    double busy_s = 0.0;
    std::uint64_t leases = 0;
    std::uint64_t blocked = 0;
    std::uint64_t attempts = 0;
    std::uint64_t deliveries = 0;
  };

  EdgeSnap sample(std::size_t edge, sim::SimTime t) const;
  /// One record covering (last_t_, t]; `t` must be > last_t_.
  void emit(sim::SimTime t);

  const sim::Simulator& sim_;
  const metrics::EdgeStats& stats_;
  const metrics::Collector* collector_ = nullptr;
  const routing::Graph* graph_ = nullptr;
  NetStateConfig config_;

  sim::SimTime start_t_ = 0;
  sim::SimTime last_t_ = 0;
  /// Per-edge values at the last record that visited the edge; an
  /// edge no record visited since has not changed.
  std::vector<EdgeSnap> prev_;
  /// Edges whose lease windows were still open after the last fold,
  /// ascending; the next record visits them with the touched edges.
  std::vector<std::size_t> open_;
  /// Scratch for the edges one record visits.
  std::vector<std::size_t> visit_;
  /// Per-edge busy seconds at start_t_ (non-zero when the sampler
  /// attached mid-run): full-run utilization is measured from here.
  std::vector<double> start_busy_s_;
  std::uint64_t intervals_ = 0;
  double max_utilization_ = 0.0;
  bool finished_ = false;
  std::string jsonl_;
};

}  // namespace qlink::obs
