#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/requests.hpp"
#include "netlayer/topology.hpp"
#include "obs/trace.hpp"

/// \file plane.hpp
/// The entanglement plane: the seam between the routing layer and
/// whatever actually produces end-to-end pairs.
///
/// Two implementations exist. netlayer::SwapService is the full-detail
/// oracle — every MHP attempt, EGP OK, swap Bell measurement and Pauli
/// correction is simulated. netlayer::FlowPlane is the flow-level fast
/// path — for steady-state links it replaces per-attempt event churn
/// with inter-delivery times sampled from the link's FEU-calibrated
/// success model, so million-request workloads fit in minutes of wall
/// time. The routing::Router speaks only this interface; which plane
/// backs it is the caller's choice, and the full-detail plane remains
/// the validation oracle the fast path is asserted against (see
/// tests/test_flow_plane.cpp and bench/bench_workload_scale.cpp).
///
/// The request/delivery/error message types live here because they are
/// the plane's wire format, shared by every implementation.

namespace qlink::metrics {
class Collector;
class EdgeStats;
}

namespace qlink::netlayer {

/// End-to-end entanglement request between two nodes of the network.
struct E2eRequest {
  std::uint32_t src = 0;
  std::uint32_t dst = 1;
  std::uint16_t num_pairs = 1;
  /// End-to-end target; also the per-link CREATE floor unless
  /// link_min_fidelity is set. (Swapping multiplies infidelities, so a
  /// route of n hops at link fidelity F ends near F^n.)
  double min_fidelity = 0.5;
  /// Per-link CREATE min_fidelity override; 0 = use min_fidelity.
  double link_min_fidelity = 0.0;
  /// The fidelity floor each hop's CREATE actually carries (also what
  /// issue-rate calibration must use).
  double effective_link_floor() const {
    return link_min_fidelity > 0.0 ? link_min_fidelity : min_fidelity;
  }
  sim::SimTime max_time = 0;  // tmax per link-layer CREATE; 0 = unbounded
  std::uint16_t purpose_id = 1;
  /// When >= 0, the time the higher layer first saw this request; the
  /// delivery latency is measured from here. The routing layer stamps
  /// it at submission so time spent queued behind reservations counts.
  /// Negative (default): stamped when the plane admits it.
  sim::SimTime submitted_at = -1;
  /// Move each link pair into carbon memory on delivery (survives the
  /// wait for the slowest hop; needs the decoupled-memory scenario for
  /// long waits, see examples/chain_e2e_nl.cpp).
  bool store_in_memory = true;
  /// Set by the routing layer when re-submitting a failed request over
  /// a sibling path (adaptive re-routing): the plane request id this
  /// one continues. Metrics then carry the original submission's
  /// latency entry to the new id instead of counting a fresh request.
  /// 0 = a fresh request.
  std::uint32_t resubmission_of = 0;
  /// Request-lifecycle trace lane (obs::Tracer::new_trace), stamped by
  /// whoever first sees the request and carried through resubmissions
  /// so a rerouted request stays one trace. 0 = untraced.
  obs::TraceId trace_id = 0;
};

/// End-to-end delivery, the network-layer analogue of core::OkMessage.
struct E2eOk {
  std::uint32_t request_id = 0;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint16_t pair_index = 0;
  std::uint16_t total_pairs = 1;
  quantum::QubitId qubit_src = 0;
  quantum::QubitId qubit_dst = 0;
  /// Fidelity of the delivered pair to |Psi+>, measured at delivery
  /// time with simulator privilege (full detail) or composed from the
  /// per-hop operating points (flow level).
  double fidelity = 0.0;
  sim::SimTime submit_time = 0;
  sim::SimTime deliver_time = 0;
  int swaps = 0;
  /// Link-layer backing of the two ends (needed to release them; unset
  /// on the flow plane, which holds no device memory).
  std::size_t link_src = 0;
  std::size_t link_dst = 0;
  core::OkMessage ok_src;
  core::OkMessage ok_dst;
};

struct E2eErr {
  std::uint32_t request_id = 0;
  core::EgpError error = core::EgpError::kNone;
  std::size_t link = 0;
};

/// Abstract entanglement plane. Implementations must be deterministic:
/// the same seed and submission sequence replays the same deliveries.
class EntanglementPlane {
 public:
  using DeliverFn = std::function<void(const E2eOk&)>;
  using ErrorFn = std::function<void(const E2eErr&)>;

  virtual ~EntanglementPlane() = default;

  /// The engine shard this plane's deliveries run on. Every plane is
  /// bound to exactly one shard (a default-constructed plane owns a
  /// private single-shard engine); the routing layer constructs against
  /// this handle rather than a bare Simulator&.
  virtual sim::EngineRef engine_ref() noexcept = 0;

  /// The clock every delivery is scheduled on (the bound shard's
  /// simulator).
  virtual sim::Simulator& simulator() noexcept { return engine_ref().sim(); }

  virtual std::size_t num_links() const noexcept = 0;
  virtual std::size_t num_nodes() const noexcept = 0;
  /// Global node ids of link i, (A side, B side).
  virtual std::pair<std::uint32_t, std::uint32_t> endpoints(
      std::size_t link) const = 0;

  /// Submit over an explicit routed path. The route must pass
  /// validate_route (std::invalid_argument otherwise). `hop_floors`,
  /// when non-empty, carries one per-hop CREATE fidelity floor; entries
  /// > 0 override the request's effective_link_floor() on that hop.
  /// Returns the plane-scoped request id; deliveries arrive through the
  /// deliver handler.
  virtual std::uint32_t submit(const E2eRequest& request,
                               const std::vector<Hop>& route,
                               std::span<const double> hop_floors = {}) = 0;

  /// The higher layer is done with a delivered end-to-end pair.
  virtual void release(const E2eOk& ok) = 0;

  virtual void set_deliver_handler(DeliverFn fn) = 0;
  virtual void set_error_handler(ErrorFn fn) = 0;

  /// Attach a per-edge accounting substrate (null to detach).
  /// Recording only — cannot perturb the trajectory.
  virtual void set_edge_stats(metrics::EdgeStats* stats) noexcept = 0;

  /// Planning estimates for Router::annotate_from_network: what pair
  /// quality/rate does `link` sustain when operated at CREATE floor
  /// `floor`?
  virtual core::Link::RateEstimate estimate_link(std::size_t link,
                                                 double floor) = 0;
  /// One-way classical delay of `link`, seconds (route-length costing
  /// and swap-correction latency).
  virtual double link_delay_s(std::size_t link) const = 0;
  /// The link's most recent *measured* quality. Nothing in src/ calls
  /// it and no plane here overrides it: it stays only because
  /// benchmark/qlinkbench.cpp's TimedPlane forwards it.
  virtual core::Link::TestRoundEstimate measured_estimate(
      std::size_t link) const {
    (void)link;
    return {};
  }

  /// The full-detail network behind this plane, when one exists. The
  /// flow plane returns nullptr: callers needing device access must
  /// check.
  virtual QuantumNetwork* network() noexcept { return nullptr; }
};

/// The route contract every plane's submit() enforces before touching
/// state: src != dst, a non-empty route over the plane's links that
/// walks contiguously from src to dst without revisiting a node, and
/// `hop_floors` empty or one entry per hop. Throws
/// std::invalid_argument, its message prefixed with \p who, otherwise.
void validate_route(const EntanglementPlane& plane, const char* who,
                    const E2eRequest& request, const std::vector<Hop>& route,
                    std::span<const double> hop_floors);

}  // namespace qlink::netlayer
