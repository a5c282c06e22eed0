#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/egp.hpp"
#include "hw/herald_model.hpp"
#include "hw/nv_device.hpp"
#include "hw/nv_params.hpp"
#include "net/channel.hpp"
#include "proto/mhp.hpp"
#include "quantum/registry.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

/// \file network.hpp
/// Assembles the full two-node link of the paper: nodes A and B (NV
/// devices + MHP + EGP), the heralding station H, quantum/classical
/// fiber connections, and the glue that installs heralded entanglement
/// into the communication qubits (including the decoherence picked up
/// while photons and replies are in flight).

namespace qlink::core {

struct LinkConfig {
  hw::ScenarioParams scenario;
  std::uint64_t seed = 1;
  /// Quantum-state representation for the link's (or network's)
  /// registry. kDense is the reference; kBellDiagonal is the analytic
  /// fast path (pair states as 4 Bell coefficients, promoted to dense
  /// on non-Clifford operations). See src/qstate/ and DESIGN.md.
  qstate::BackendKind backend = qstate::BackendKind::kDense;
  /// Project every heralded state onto the Bell-diagonal manifold
  /// before installing it ("Pauli-frame" simulation). The twirl
  /// exactly preserves the installed pair's fidelity to every Bell
  /// state and its QBER in every basis; with it, Clifford+Pauli
  /// scenarios evolve identically (within float rounding) on the dense
  /// and Bell-diagonal backends — and the latter never leaves its fast
  /// path.
  bool pauli_twirl_installs = false;
  SchedulerConfig scheduler;
  double test_round_probability = 0.0;
  sim::SimTime mem_advert_interval = 0;
  bool emission_multiplexing = true;
  /// Consecutive one-sided midpoint errors before a request is expired
  /// (see EgpConfig::one_sided_error_threshold).
  int one_sided_error_threshold = 64;
  /// Network-wide node ids of the two endpoints. The defaults keep the
  /// historical single-link world (A = 0, B = 1); a topology assigns
  /// globally unique ids so OK origin fields stay unambiguous.
  std::uint32_t node_id_a = 0;
  std::uint32_t node_id_b = 1;
  /// Suffix appended to entity names (e.g. "[2]") so diagnostics from
  /// different links in one simulation are distinguishable.
  std::string label;
};

/// A fully wired two-node quantum link.
///
/// A link either owns its simulation world (simulator, random source,
/// qubit registry, MHP cycle clock) — the historical standalone mode —
/// or borrows an externally owned one, which is how
/// netlayer::QuantumNetwork puts many links on a single clock so their
/// pairs can be swapped into end-to-end entanglement.
class Link {
 public:
  /// Standalone: the link owns simulator, random source, and registry.
  explicit Link(const LinkConfig& config);

  /// Shared-world: all four are owned by the caller (who must keep
  /// them alive for the lifetime of the link). Entanglement between
  /// qubits of different links requires a shared registry. The clock
  /// must run on \p simulator at the scenario's mhp_cycle, else
  /// std::invalid_argument.
  Link(sim::Simulator& simulator, sim::Random& random,
       quantum::QuantumRegistry& registry, proto::CycleClock& clock,
       const LinkConfig& config);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  sim::Simulator& simulator() { return *simulator_; }
  sim::Random& random() { return *random_; }
  quantum::QuantumRegistry& registry() { return *registry_; }
  const hw::HeraldModel& herald_model() const { return *model_; }
  const hw::ScenarioParams& scenario() const { return config_.scenario; }

  hw::NvDevice& device_a() { return *device_a_; }
  hw::NvDevice& device_b() { return *device_b_; }
  Egp& egp_a() { return *egp_a_; }
  Egp& egp_b() { return *egp_b_; }
  Egp& egp(std::uint32_t node_id) {
    return node_id == config_.node_id_a ? *egp_a_ : *egp_b_;
  }
  hw::NvDevice& device(std::uint32_t node_id) {
    return node_id == config_.node_id_a ? *device_a_ : *device_b_;
  }
  std::uint32_t node_id_a() const noexcept { return config_.node_id_a; }
  std::uint32_t node_id_b() const noexcept { return config_.node_id_b; }
  proto::NodeMhp& mhp_a() { return *mhp_a_; }
  proto::NodeMhp& mhp_b() { return *mhp_b_; }
  proto::MidpointStation& station() { return *station_; }
  net::ClassicalChannel& peer_channel() { return *chan_ab_; }
  net::ClassicalChannel& station_channel_a() { return *chan_a_h_; }
  net::ClassicalChannel& station_channel_b() { return *chan_b_h_; }

  /// Start both MHPs on the link's cycle clock.
  void start();

  /// Run the simulation for a given span of simulated time.
  void run_for(sim::SimTime span);

  /// Measured fidelity of a delivered K pair: reduced state of the two
  /// qubits named in matching OKs at A and B (simulator privilege).
  double pair_fidelity(quantum::QubitId qubit_a, quantum::QubitId qubit_b);

  /// FEU-derived planning estimate for a K-type CREATE at the given
  /// fidelity floor: the delivered fidelity and expected per-pair
  /// generation time at the alpha the EGP would actually run. This is
  /// what the routing layer's cost models consume (see
  /// routing::Router::annotate_from_network).
  struct RateEstimate {
    bool feasible = false;
    double fidelity = 0.0;
    double pair_time_s = 0.0;
  };
  RateEstimate estimate_k_create(double min_fidelity);

  /// A measured link quality: how many test rounds fed the FEU's
  /// sliding window and its Eq. 16 estimate (Appendix B). Only the
  /// return type of netlayer::EntanglementPlane::measured_estimate.
  struct TestRoundEstimate {
    std::size_t rounds = 0;
    std::optional<double> fidelity;
  };

  static constexpr std::uint32_t kNodeA = 0;
  static constexpr std::uint32_t kNodeB = 1;

 private:
  void wire();
  void install_entanglement(int outcome, std::uint64_t cycle);
  std::pair<int, int> sample_measurement(int outcome,
                                         quantum::gates::Basis basis_a,
                                         quantum::gates::Basis basis_b);

  LinkConfig config_;
  // Owned only in standalone mode; null when the world is external.
  std::unique_ptr<sim::Simulator> owned_simulator_;
  std::unique_ptr<sim::Random> owned_random_;
  std::unique_ptr<quantum::QuantumRegistry> owned_registry_;
  std::unique_ptr<proto::CycleClock> owned_clock_;
  sim::Simulator* simulator_ = nullptr;
  sim::Random* random_ = nullptr;
  quantum::QuantumRegistry* registry_ = nullptr;
  proto::CycleClock* clock_ = nullptr;
  std::unique_ptr<hw::HeraldModel> model_;
  std::unique_ptr<hw::NvDevice> device_a_;
  std::unique_ptr<hw::NvDevice> device_b_;
  std::unique_ptr<net::ClassicalChannel> chan_a_h_;
  std::unique_ptr<net::ClassicalChannel> chan_b_h_;
  std::unique_ptr<net::ClassicalChannel> chan_ab_;
  std::unique_ptr<proto::NodeMhp> mhp_a_;
  std::unique_ptr<proto::NodeMhp> mhp_b_;
  std::unique_ptr<proto::MidpointStation> station_;
  std::unique_ptr<Egp> egp_a_;
  std::unique_ptr<Egp> egp_b_;
  double last_alpha_a_ = 0.1;
  double last_alpha_b_ = 0.1;
};

}  // namespace qlink::core
