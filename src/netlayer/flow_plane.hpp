#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "netlayer/plane.hpp"
#include "netlayer/plane_recorder.hpp"
#include "sim/random.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

/// \file flow_plane.hpp
/// The flow-level fast path: an EntanglementPlane that replaces
/// per-attempt MHP event churn with sampled inter-delivery times drawn
/// from the link's FEU-calibrated success model.
///
/// Model. A link operated at CREATE floor F succeeds each attempt slot
/// with probability p_succ (the herald model at the FEU's advised
/// bright-state alpha); slots last slot_s = pair_time_s * p_succ
/// seconds, so the sampled geometric attempt count times slot_s has
/// mean pair_time_s — exactly the FEU's expected time per pair that
/// the full-detail simulation realises in steady state. Per request,
/// every hop generates its pairs sequentially (one device per link),
/// starting at max(submit time, the link's previous completion) —
/// links serve requests FIFO, the flow analogue of the MHP's
/// single-attempt pipeline. Pair j is delivered when its slowest hop
/// has produced j+1 pairs, plus the route's summed one-way classical
/// delays (swap outcomes propagating to the destination). Its
/// fidelity is the Bell-diagonal swap composition of the per-hop
/// operating points (cf. routing::PathSelector::estimated_fidelity) —
/// the model estimate, not a sampled value.
///
/// Validity conditions (asserted by the oracle test,
/// tests/test_flow_plane.cpp): links in steady state (no EXPIRE storms
/// — the flow plane never fails a request), per-link concurrency
/// bounded by admission control (the Router's reservation table), and
/// request latency dominated by pair generation rather than
/// memory-decoherence effects. Outside those conditions, use the
/// full-detail SwapService.
///
/// One scheduled event per delivered pair, O(1) retained state per
/// in-flight request, no quantum state: this is what lets
/// bench_workload_scale push 1M+ requests through 1000+ nodes in
/// minutes of wall time.

namespace qlink::netlayer {

/// A link's flow-level operating menu, measured once from a standalone
/// full-detail core::Link (the same hardware model the FEU advises
/// from) over descending CREATE-floor set-points.
struct FlowCalibration {
  struct Entry {
    double floor = 0.0;
    bool feasible = false;
    double fidelity = 0.0;     // estimated delivered fidelity at floor
    double pair_time_s = 0.0;  // FEU expected time per pair
    double p_succ = 0.0;       // per-slot herald success probability
  };
  std::vector<Entry> menu;  // descending floors
  /// One-way classical delay of the link, seconds.
  double delay_s = 0.0;

  /// Probe `link`'s FEU at every floor of `floor_menu` (descending
  /// quality set-points, as Router::annotate_from_network).
  static FlowCalibration from_link(core::Link& link,
                                   std::span<const double> floor_menu);

  /// The feasible entry operating at exactly `floor`, else the best
  /// feasible entry with floor <= requested, else nullptr.
  const Entry* lookup(double floor) const noexcept;
  /// First feasible entry (the highest quality set-point), nullptr if
  /// none.
  const Entry* best() const noexcept;
};

struct FlowPlaneConfig {
  /// Link i joins node ids edges[i].first (A side) / .second (B side).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  /// 0 infers max listed id + 1.
  std::size_t num_nodes = 0;
  /// Operating menu shared by every link (homogeneous hardware).
  FlowCalibration calibration;
  /// Recorded through the same PlaneRecorder as SwapService: create
  /// (or resubmit) at admission, one OK (+ phase decomposition) per
  /// delivered pair, an error per failed request. Optional.
  metrics::Collector* collector = nullptr;
  std::uint64_t seed = 1;
  /// Bind the plane to one shard of an existing engine instead of
  /// owning a private single-shard one (same contract as
  /// NetworkConfig::engine/shard: the engine must outlive the plane,
  /// and everything this plane schedules stays on that shard).
  sim::ShardedEngine* engine = nullptr;
  std::size_t shard = 0;
};

class FlowPlane : public EntanglementPlane {
 public:
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t pairs_delivered = 0;
    std::uint64_t attempts = 0;  // sampled generation slots, all hops
  };

  explicit FlowPlane(FlowPlaneConfig config);

  // --- EntanglementPlane ---
  sim::EngineRef engine_ref() noexcept override {
    return engine_->ref(shard_);
  }
  sim::Simulator& simulator() noexcept override {
    return engine_->sim(shard_);
  }
  std::size_t num_links() const noexcept override { return edges_.size(); }
  std::size_t num_nodes() const noexcept override { return num_nodes_; }
  std::pair<std::uint32_t, std::uint32_t> endpoints(
      std::size_t link) const override {
    return edges_.at(link);
  }
  std::uint32_t submit(const E2eRequest& request,
                       const std::vector<Hop>& route,
                       std::span<const double> hop_floors = {}) override;
  void release(const E2eOk& ok) override {
    (void)ok;  // no device memory to free at flow level
  }
  void set_deliver_handler(DeliverFn fn) override {
    on_deliver_ = std::move(fn);
  }
  void set_error_handler(ErrorFn fn) override { on_error_ = std::move(fn); }
  void set_edge_stats(metrics::EdgeStats* stats) noexcept override {
    edge_stats_ = stats;
  }
  core::Link::RateEstimate estimate_link(std::size_t link,
                                         double floor) override;
  double link_delay_s(std::size_t link) const override {
    (void)link;
    return calibration_.delay_s;
  }

  /// Advance the clock (mirrors QuantumNetwork::run_for so drivers
  /// treat both planes alike). When bound to a shared engine this
  /// drives every shard together.
  void run_for(sim::SimTime span) {
    engine_->run_until(simulator().now() + span);
  }
  void run_until(sim::SimTime t) { engine_->run_until(t); }

  const Stats& stats() const noexcept { return stats_; }

 private:
  /// Sampled wall time for one pair on `link` at operating point
  /// `entry`: Geometric(p_succ) attempt slots of slot_s seconds each.
  sim::SimTime sample_pair_time(const FlowCalibration::Entry& entry,
                                std::size_t link);

  /// Private single-shard engine when the config does not bind one.
  std::unique_ptr<sim::ShardedEngine> owned_engine_;
  sim::ShardedEngine* engine_ = nullptr;
  std::size_t shard_ = 0;
  sim::Random random_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges_;
  std::size_t num_nodes_ = 0;
  FlowCalibration calibration_;
  /// When each link finishes its last accepted generation job (FIFO
  /// service) — the only per-link mutable state.
  std::vector<sim::SimTime> next_free_;
  std::uint32_t next_request_id_ = 1;
  PlaneRecorder recorder_;
  metrics::EdgeStats* edge_stats_ = nullptr;
  DeliverFn on_deliver_;
  ErrorFn on_error_;
  Stats stats_;
};

}  // namespace qlink::netlayer
