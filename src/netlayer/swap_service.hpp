#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/requests.hpp"
#include "netlayer/plane.hpp"
#include "netlayer/plane_recorder.hpp"
#include "netlayer/topology.hpp"
#include "obs/trace.hpp"
#include "sim/entity.hpp"

/// \file swap_service.hpp
/// Network-layer entanglement swapping (Section 3.3 / Figure 1b).
///
/// The SwapService is the higher layer the EGP serves: it owns the
/// OK/ERR streams of every EGP in a QuantumNetwork. An end-to-end
/// request fans out into one link-layer CREATE per hop of the route;
/// as matched OK pairs surface on every hop, the service Bell-measures
/// the two halves held at each intermediate node (the mechanics proven
/// in examples/repeater_swap_nl.cpp, generalised to arbitrary routes),
/// applies the conditional Pauli corrections toward the destination,
/// and delivers an end-to-end pair whose fidelity is measured with
/// simulator privilege and tracked through metrics::Collector.

namespace qlink::netlayer {

// E2eRequest / E2eOk / E2eErr are the entanglement plane's wire format
// and live in netlayer/plane.hpp (included above): they are shared
// with the flow-level fast path.

/// The full-detail entanglement plane (the validation oracle).
class SwapService : public sim::Entity, public EntanglementPlane {
 public:
  using DeliverFn = EntanglementPlane::DeliverFn;
  using ErrorFn = EntanglementPlane::ErrorFn;

  struct Stats {
    std::uint64_t requests = 0;
    /// Of `requests`, how many were re-routing resubmissions.
    std::uint64_t resubmissions = 0;
    std::uint64_t link_pairs_consumed = 0;
    std::uint64_t swaps = 0;
    std::uint64_t pairs_delivered = 0;
    std::uint64_t errors = 0;
    std::uint64_t unclaimed_oks = 0;
  };

  /// Takes over the OK/ERR handlers of every EGP in `network`. At most
  /// one SwapService per network; `collector` (optional) receives
  /// record_create/record_ok/record_err under Priority::kNetworkLayer.
  explicit SwapService(QuantumNetwork& network,
                       metrics::Collector* collector = nullptr);

  /// Submit an end-to-end request over the network's minimum-hop path.
  /// Returns its id; deliveries arrive through the deliver handler.
  std::uint32_t request(const E2eRequest& request);

  /// Submit over an explicit routed path (e.g. a routing::PathSelector
  /// candidate, translated to Hops). The route must be a contiguous
  /// src -> dst walk over existing links (std::invalid_argument
  /// otherwise). `hop_floors`, when non-empty, carries one per-hop
  /// CREATE fidelity floor; entries > 0 override the request's
  /// effective_link_floor() on that hop — heterogeneous links are
  /// operated at the quality set-point their hardware supports.
  std::uint32_t request(const E2eRequest& request,
                        const std::vector<Hop>& route,
                        std::span<const double> hop_floors = {});

  // --- EntanglementPlane ---
  sim::EngineRef engine_ref() noexcept override { return net_.engine_ref(); }
  sim::Simulator& simulator() noexcept override {
    return Entity::simulator();
  }
  std::size_t num_links() const noexcept override;
  std::size_t num_nodes() const noexcept override;
  std::pair<std::uint32_t, std::uint32_t> endpoints(
      std::size_t link) const override;
  std::uint32_t submit(const E2eRequest& req, const std::vector<Hop>& route,
                       std::span<const double> hop_floors = {}) override {
    return request(req, route, hop_floors);
  }
  core::Link::RateEstimate estimate_link(std::size_t link,
                                         double floor) override;
  double link_delay_s(std::size_t link) const override;
  QuantumNetwork* network() noexcept override { return &net_; }

  void set_deliver_handler(DeliverFn fn) override {
    on_deliver_ = std::move(fn);
  }
  void set_error_handler(ErrorFn fn) override { on_error_ = std::move(fn); }

  /// The higher layer is done with a delivered end-to-end pair.
  void release(const E2eOk& ok) override;

  /// Attach a lifecycle tracer (null to detach). The tracer only
  /// records — it never schedules events or consumes randomness — so
  /// attaching one cannot perturb the trajectory.
  void set_tracer(obs::Tracer* tracer) noexcept { tracer_ = tracer; }

  /// Attach a per-edge accounting substrate (null to detach): receives
  /// per-hop CREATE attempts, swap executions, and per-hop delivery
  /// facts. Recording only — cannot perturb the trajectory.
  void set_edge_stats(metrics::EdgeStats* stats) noexcept override {
    edge_stats_ = stats;
  }

  const Stats& stats() const noexcept { return stats_; }
  std::size_t open_requests() const noexcept { return requests_.size(); }

 private:
  struct PartialPair {
    std::optional<core::OkMessage> a;  // link's A-side OK
    std::optional<core::OkMessage> b;  // link's B-side OK
  };

  struct MatchedPair {
    std::size_t link = 0;
    core::OkMessage a;
    core::OkMessage b;
  };

  struct HopState {
    Hop hop;
    std::uint32_t create_id = 0;
    std::uint64_t span_id = 0;  // open async CREATE->done trace span
    std::map<std::uint32_t, PartialPair> partial;  // by ent_id.seq_mhp
    std::deque<MatchedPair> ready;
  };

  struct RequestState {
    std::uint32_t id = 0;
    E2eRequest req;
    sim::SimTime submitted = 0;
    /// When the SwapService admitted the request (issued its CREATEs);
    /// anchors the generation phase of the latency decomposition.
    sim::SimTime admitted = 0;
    std::vector<HopState> hops;
    std::uint16_t launched = 0;   // cascades started
    std::uint16_t delivered = 0;  // end-to-end pairs delivered
  };

  void on_ok(std::size_t link, std::uint32_t node, const core::OkMessage& ok);
  void on_err(std::size_t link, std::uint32_t node, const core::ErrMessage&);
  void try_launch(RequestState& rs);
  void run_cascade(std::uint32_t request_id, std::vector<MatchedPair> pairs,
                   sim::SimTime launched_at);
  void fail_request(RequestState& rs, std::size_t link, core::EgpError error);
  /// Returns how many pair halves/pairs were dropped.
  std::size_t drop_revoked(RequestState& rs, std::size_t link,
                           std::uint32_t seq_low, std::uint32_t seq_high);
  void erase_request(std::uint32_t id);

  /// OK held at the node a hop enters at (near end) / exits from (far).
  static const core::OkMessage& near_ok(const Hop& h, const MatchedPair& p) {
    return h.reversed ? p.b : p.a;
  }
  static const core::OkMessage& far_ok(const Hop& h, const MatchedPair& p) {
    return h.reversed ? p.a : p.b;
  }

  /// Worst-case classical delay for swap outcomes to reach dst: the
  /// route length in one-way link delays from the first swap node.
  sim::SimTime correction_delay(const RequestState& rs);

  QuantumNetwork& net_;
  PlaneRecorder recorder_;
  std::map<std::uint32_t, RequestState> requests_;
  /// (link index, origin node of the CREATE, link-layer create id) ->
  /// (request id, hop index). Create ids are per-EGP counters, so two
  /// requests entering one link from opposite ends can share an id —
  /// the origin node disambiguates them.
  std::map<std::tuple<std::size_t, std::uint32_t, std::uint32_t>,
           std::pair<std::uint32_t, std::size_t>>
      by_create_;
  std::uint32_t next_request_id_ = 1;
  obs::Tracer* tracer_ = nullptr;
  metrics::EdgeStats* edge_stats_ = nullptr;
  DeliverFn on_deliver_;
  ErrorFn on_error_;
  Stats stats_;
};

}  // namespace qlink::netlayer
