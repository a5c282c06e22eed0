#pragma once

#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "core/network.hpp"
#include "metrics/collector.hpp"
#include "sim/entity.hpp"
#include "workload/arrival.hpp"

namespace qlink::netlayer {
class EntanglementPlane;
class QuantumNetwork;
class SwapService;
}  // namespace qlink::netlayer

namespace qlink::obs {
class Session;
}  // namespace qlink::obs

namespace qlink::routing {
class Router;
}  // namespace qlink::routing

/// \file workload.hpp
/// The traffic engine: offered load in, consumed deliveries out.
///
/// Two traffic generators share one driver core:
///
///  - the per-cycle Bernoulli issue of Section 6 / Appendix C.2 (the
///    historical mode): every MHP cycle a new CREATE of kind
///    P in {NL, CK, MD} is issued with probability f_P * p_succ /
///    (E * k) for a uniformly random k <= k_max — f_P sets the offered
///    load relative to link capacity (0.7 = Low, 0.99 = High,
///    1.5 = Ultra);
///  - an ArrivalProcess (workload/arrival.hpp): Poisson arrivals or
///    per-class mixes over them, streaming requests with O(1) heap
///    state per in-flight request — the million-request mode.
///
/// Three plumbing modes, built through the named factories:
///
///  - for_link: drive one core::Link directly (the historical
///    single-link harness);
///  - for_e2e: drive a netlayer::QuantumNetwork through its
///    SwapService — every request asks for entanglement between two
///    nodes of the topology;
///  - for_routed: submit through a routing::Router, so every request
///    is path-selected and admitted against its reservation table.
///    Works over either plane: the full-detail SwapService or the
///    flow-level netlayer::FlowPlane (which is how
///    bench_workload_scale reaches 1M+ requests).
///
/// In every mode the driver also plays the higher layer: it consumes
/// delivered pairs, records all metrics, releases resources, and polls
/// any attached obs::Session from its cycle event.

namespace qlink::workload {

/// Where CREATE requests originate (fairness axis of Section 6.2). In
/// end-to-end mode this picks the endpoint pair instead: kAllA = first
/// node to last, kAllB = last to first, kRandom = random distinct pair.
enum class OriginMode { kAllA, kAllB, kRandom };

struct KindSpec {
  double fraction = 0.0;  // f_P
  std::uint16_t k_max = 1;
};

/// Traffic shape: what the offered load looks like. (The API split of
/// ISSUE 9 — shape here, plumbing in DriverConfig.)
struct TrafficConfig {
  KindSpec nl;
  KindSpec ck;
  KindSpec md;
  OriginMode origin = OriginMode::kRandom;
  double min_fidelity = 0.64;
  sim::SimTime max_time = 0;  // tmax on requests; 0 = unbounded
  /// End-to-end modes only: per-link CREATE fidelity floor (0 = use
  /// min_fidelity on every hop; see E2eRequest::link_min_fidelity).
  double link_min_fidelity = 0.0;
  /// When set, requests arrive through this process instead of the
  /// per-cycle Bernoulli issue (end-to-end and routed modes only).
  /// Shared so one shape can drive many runs.
  std::shared_ptr<ArrivalProcess> arrivals;
};

/// Plumbing: seeds and polling cadence. Nothing here changes what the
/// traffic asks for.
struct DriverConfig {
  std::uint64_t seed = 7;
  /// Evict unmatched delivered pairs after this long (covers lost OKs).
  sim::SimTime stale_pair_horizon = sim::duration::milliseconds(20);
  /// Control-loop cadence (observation-session polls, queue-length
  /// samples, Bernoulli issue). 0 = the reference
  /// link's MHP cycle, or 10 us when no full-detail link exists
  /// (routed mode over a flow plane).
  sim::SimTime poll_interval = 0;
  /// Arrival mode: stop issuing after this many requests (0 =
  /// unlimited — issue until stop()).
  std::uint64_t max_requests = 0;
};

/// Convenience aggregate: the union of TrafficConfig and DriverConfig
/// with the historical field names, split by traffic()/tuning() at the
/// factory call (the constructor shims that used to take it whole were
/// removed in ISSUE 10). usage_pattern() returns one.
struct WorkloadConfig {
  KindSpec nl;
  KindSpec ck;
  KindSpec md;
  OriginMode origin = OriginMode::kRandom;
  double min_fidelity = 0.64;
  sim::SimTime max_time = 0;
  std::uint64_t seed = 7;
  sim::SimTime stale_pair_horizon = sim::duration::milliseconds(20);
  double link_min_fidelity = 0.0;

  TrafficConfig traffic() const;
  DriverConfig tuning() const;
};

/// The named usage patterns of Table 2 (Appendix C.2).
struct UsagePattern {
  std::string name;
  WorkloadConfig config;
};
UsagePattern usage_pattern(const std::string& name, double load = 0.99);

class WorkloadDriver : public sim::Entity {
 public:
  /// Single-link mode (the historical harness). ArrivalProcess traffic
  /// is not supported here (std::invalid_argument): link-layer CREATEs
  /// follow the paper's per-cycle issue model.
  static std::unique_ptr<WorkloadDriver> for_link(
      core::Link& link, const TrafficConfig& traffic,
      const DriverConfig& tuning, metrics::Collector& collector);

  /// End-to-end mode. The SwapService owns every EGP's OK/ERR stream
  /// and should have been constructed with `collector` so deliveries
  /// are recorded under Priority::kNetworkLayer; the driver issues
  /// requests, releases delivered pairs, and samples queue lengths.
  static std::unique_ptr<WorkloadDriver> for_e2e(
      netlayer::QuantumNetwork& network, netlayer::SwapService& swap,
      const TrafficConfig& traffic, const DriverConfig& tuning,
      metrics::Collector& collector);

  /// Routed mode: traffic over a general graph through `router`, whose
  /// reservation table decides admission. Works over either
  /// entanglement plane; a flow-plane router requires ArrivalProcess
  /// traffic (the Bernoulli issue calibrates against full-detail
  /// hardware the flow plane does not carry).
  static std::unique_ptr<WorkloadDriver> for_routed(
      routing::Router& router, const TrafficConfig& traffic,
      const DriverConfig& tuning, metrics::Collector& collector);

  /// Begin issuing requests and consuming results.
  void start();
  void stop();

  /// Attach a run's observation session: the driver polls it once per
  /// control cycle — an event that exists with or without the session —
  /// so interval records stream without perturbing the trajectory. The
  /// caller still owns the session and calls finish() after stop().
  void set_session(obs::Session* session) { session_ = session; }

  const TrafficConfig& traffic() const { return traffic_; }
  const DriverConfig& tuning() const { return tuning_; }
  std::uint64_t requests_issued() const { return issued_; }
  std::uint64_t pairs_matched() const { return matched_; }

 private:
  struct PendingPair {
    std::optional<core::OkMessage> ok_a;
    std::optional<core::OkMessage> ok_b;
    sim::SimTime first_seen = 0;
  };

  /// How the driver is plumbed into the system (filled by the
  /// factories; exactly one mode's fields are set).
  struct Wiring {
    core::Link* link = nullptr;
    netlayer::QuantumNetwork* net = nullptr;
    netlayer::EntanglementPlane* plane = nullptr;
    netlayer::SwapService* swap = nullptr;
    routing::Router* router = nullptr;
    sim::Simulator* simulator = nullptr;
    const char* name = "workload";
  };

  WorkloadDriver(const Wiring& wiring, TrafficConfig traffic,
                 DriverConfig tuning, metrics::Collector& collector);

  /// The link whose FEU/herald model calibrates issue probabilities
  /// (the only link in single-link mode, link 0 otherwise).
  core::Link& ref_link();

  /// Single-link mode: 0 for the A side, 1 for the B side (node ids
  /// are configurable and must not index kind_by_create_ directly).
  std::size_t side_index(std::uint32_t node_id) {
    return node_id == link_->node_id_a() ? 0 : 1;
  }

  /// Draw a request size k and apply the per-cycle rate throttle
  /// (base / k); 0 means "issue nothing this cycle". Shared by the
  /// single-link and end-to-end issue paths so their load calibration
  /// stays identical.
  std::uint16_t throttled_request_size(double base, std::uint16_t k_max);

  /// Endpoint pair for an end-to-end request under OriginMode.
  std::pair<std::uint32_t, std::uint32_t> pick_endpoints();
  std::size_t e2e_num_nodes() const;

  void on_cycle();
  void maybe_issue(core::Priority kind, const KindSpec& spec);
  void maybe_issue_e2e();
  /// Arrival mode: issue the request the process shaped, then schedule
  /// the next arrival.
  void on_arrival();
  void schedule_next_arrival();
  void issue_shaped(const RequestShape& shape);
  void on_ok(std::uint32_t node, const core::OkMessage& ok);
  void on_err(std::uint32_t node, const core::ErrMessage& err);
  void consume(const PendingPair& pair);
  void sweep_stale();
  double issue_probability(core::Priority kind, const KindSpec& spec);

  core::Link* link_ = nullptr;               // single-link mode
  netlayer::QuantumNetwork* net_ = nullptr;  // full-detail e2e plumbing
  netlayer::EntanglementPlane* plane_ = nullptr;  // e2e + routed modes
  netlayer::SwapService* swap_ = nullptr;    // e2e mode (direct submit)
  routing::Router* router_ = nullptr;        // routed mode
  obs::Session* session_ = nullptr;          // polled each cycle
  TrafficConfig traffic_;
  DriverConfig tuning_;
  metrics::Collector& collector_;
  sim::Random random_;
  sim::PeriodicTimer timer_;
  std::optional<sim::EventId> arrival_event_;
  std::map<std::uint32_t, PendingPair> pending_;  // by ent_id.seq_mhp
  std::map<std::uint32_t, core::Priority> kind_by_create_[2];
  std::uint64_t issued_ = 0;
  std::uint64_t matched_ = 0;
  std::array<std::optional<double>, 2> cached_p_succ_{};  // per type K/M
};

}  // namespace qlink::workload
