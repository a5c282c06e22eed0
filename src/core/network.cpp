#include "core/network.hpp"

#include <algorithm>

#include "quantum/bell.hpp"
#include "quantum/channels.hpp"

namespace qlink::core {

using quantum::DensityMatrix;
using quantum::QubitId;
namespace gates = quantum::gates;

Link::Link(const LinkConfig& config)
    : config_(config),
      owned_simulator_(std::make_unique<sim::Simulator>()),
      owned_random_(std::make_unique<sim::Random>(config.seed)),
      simulator_(owned_simulator_.get()),
      random_(owned_random_.get()) {
  owned_registry_ =
      std::make_unique<quantum::QuantumRegistry>(*random_, config.backend);
  registry_ = owned_registry_.get();
  wire();
}

Link::Link(sim::Simulator& simulator, sim::Random& random,
           quantum::QuantumRegistry& registry, const LinkConfig& config)
    : config_(config),
      simulator_(&simulator),
      random_(&random),
      registry_(&registry) {
  wire();
}

void Link::wire() {
  const hw::ScenarioParams& sc = config_.scenario;
  const std::string& tag = config_.label;

  model_ = std::make_unique<hw::HeraldModel>(sc.herald);

  device_a_ = std::make_unique<hw::NvDevice>(*simulator_, "nv-a" + tag,
                                             sc.nv, *registry_);
  device_b_ = std::make_unique<hw::NvDevice>(*simulator_, "nv-b" + tag,
                                             sc.nv, *registry_);

  chan_a_h_ = std::make_unique<net::ClassicalChannel>(
      *simulator_, "fiber-a-h" + tag, sc.delay_a_to_station, *random_,
      sc.classical_loss_prob);
  chan_b_h_ = std::make_unique<net::ClassicalChannel>(
      *simulator_, "fiber-b-h" + tag, sc.delay_b_to_station, *random_,
      sc.classical_loss_prob);
  chan_ab_ = std::make_unique<net::ClassicalChannel>(
      *simulator_, "fiber-a-b" + tag, sc.delay_a_to_b(), *random_,
      sc.classical_loss_prob);

  // Endpoint convention: nodes sit at endpoint 0 of their station link
  // and the station at endpoint 1; on the peer link A is 0 and B is 1.
  mhp_a_ = std::make_unique<proto::NodeMhp>(*simulator_, "mhp-a" + tag,
                                            config_.node_id_a, *device_a_,
                                            *chan_a_h_, 0, sc.mhp_cycle);
  mhp_b_ = std::make_unique<proto::NodeMhp>(*simulator_, "mhp-b" + tag,
                                            config_.node_id_b, *device_b_,
                                            *chan_b_h_, 0, sc.mhp_cycle);

  station_ = std::make_unique<proto::MidpointStation>(
      *simulator_, "station-h" + tag, *model_, *random_, *chan_a_h_, 1,
      *chan_b_h_, 1, sc.mhp_cycle);
  const std::uint64_t skew_cycles =
      static_cast<std::uint64_t>(
          std::max(sc.delay_a_to_station, sc.delay_b_to_station) /
          sc.mhp_cycle) +
      8;
  station_->set_match_window(skew_cycles);
  station_->set_install_handler(
      [this](int outcome, std::uint64_t cycle, double aa, double ab) {
        last_alpha_a_ = aa;
        last_alpha_b_ = ab;
        install_entanglement(outcome, cycle);
      });
  station_->set_measure_sampler(
      [this](int outcome, gates::Basis ba, gates::Basis bb, double aa,
             double ab) {
        last_alpha_a_ = aa;
        last_alpha_b_ = ab;
        return sample_measurement(outcome, ba, bb);
      });

  auto make_egp_config = [&](std::uint32_t id, std::uint32_t peer,
                             bool master) {
    EgpConfig c;
    c.node_id = id;
    c.peer_node_id = peer;
    c.is_master = master;
    c.scheduler = config_.scheduler;
    c.test_round_probability = config_.test_round_probability;
    c.mem_advert_interval = config_.mem_advert_interval;
    c.emission_multiplexing = config_.emission_multiplexing;
    c.one_sided_error_threshold = config_.one_sided_error_threshold;
    return c;
  };
  egp_a_ = std::make_unique<Egp>(
      *simulator_, "egp-a" + tag,
      make_egp_config(config_.node_id_a, config_.node_id_b, true), sc,
      *device_a_, *model_, *chan_ab_, 0, *mhp_a_);
  egp_b_ = std::make_unique<Egp>(
      *simulator_, "egp-b" + tag,
      make_egp_config(config_.node_id_b, config_.node_id_a, false), sc,
      *device_b_, *model_, *chan_ab_, 1, *mhp_b_);
}

void Link::start() {
  mhp_a_->start();
  mhp_b_->start();
}

void Link::run_for(sim::SimTime span) {
  simulator_->run_until(simulator_->now() + span);
}

void Link::set_classical_loss(double p) {
  chan_a_h_->set_loss_probability(p);
  chan_b_h_->set_loss_probability(p);
  chan_ab_->set_loss_probability(p);
}

void Link::install_entanglement(int outcome, std::uint64_t cycle) {
  const hw::HeraldDistribution& dist =
      model_->distribution(last_alpha_a_, last_alpha_b_);
  DensityMatrix state =
      outcome == 1 ? dist.post_psi_plus : dist.post_psi_minus;

  // Decoherence the electrons picked up between emission and the swap
  // (photon flight time); further decay until the nodes act on their
  // REPLYs is handled lazily by the devices.
  const sim::SimTime emitted =
      static_cast<sim::SimTime>(cycle) * config_.scenario.mhp_cycle;
  const auto& nv = config_.scenario.nv;
  const double elapsed =
      static_cast<double>(std::max<sim::SimTime>(0, simulator_->now() -
                                                        emitted));
  const auto decay =
      quantum::channels::t1t2(elapsed, nv.electron_t1_ns, nv.electron_t2_ns);
  const int q0[] = {0};
  const int q1[] = {1};
  state.apply_kraus(decay, q0);
  state.apply_kraus(decay, q1);

  if (config_.pauli_twirl_installs) {
    // Pauli-frame mode: keep only the Bell-basis diagonal. Exactly
    // preserves this pair's fidelity/QBER metrics and keeps the state
    // on the Bell-diagonal backend's fast path.
    state = quantum::bell::twirl(state);
  }

  const QubitId pair[] = {device_a_->comm_qubit(), device_b_->comm_qubit()};
  registry_->set_state(pair, state);
  device_a_->mark_fresh(pair[0]);
  device_b_->mark_fresh(pair[1]);
  device_a_->set_live(pair[0], true);
  device_b_->set_live(pair[1], true);
}

std::pair<int, int> Link::sample_measurement(int outcome,
                                             gates::Basis basis_a,
                                             gates::Basis basis_b) {
  const hw::HeraldDistribution& dist =
      model_->distribution(last_alpha_a_, last_alpha_b_);
  DensityMatrix state =
      outcome == 1 ? dist.post_psi_plus : dist.post_psi_minus;

  // M-type attempts read out ~3.7 us after emission (Section 4.4); decay
  // over that window is tiny but included for honesty.
  const auto& nv = config_.scenario.nv;
  const double readout =
      static_cast<double>(nv.readout_duration);
  const auto decay =
      quantum::channels::t1t2(readout, nv.electron_t1_ns, nv.electron_t2_ns);
  const int q0[] = {0};
  const int q1[] = {1};
  state.apply_kraus(decay, q0);
  state.apply_kraus(decay, q1);

  state.apply_unitary(gates::basis_change(basis_a), q0);
  state.apply_unitary(gates::basis_change(basis_b), q1);
  const auto& m = state.matrix();
  const double w[] = {m(0, 0).real(), m(1, 1).real(), m(2, 2).real(),
                      m(3, 3).real()};
  const auto joint = random_->discrete(w);
  int oa = static_cast<int>(joint >> 1);
  int ob = static_cast<int>(joint & 1);

  // Asymmetric readout noise (Eq. 23) at each node.
  auto flip = [&](int o) {
    const double p_correct =
        o == 0 ? nv.readout_fidelity0 : nv.readout_fidelity1;
    return random_->bernoulli(p_correct) ? o : 1 - o;
  };
  oa = flip(oa);
  ob = flip(ob);
  return {oa, ob};
}

double Link::pair_fidelity(QubitId qubit_a, QubitId qubit_b) {
  device_a_->touch(qubit_a);
  device_b_->touch(qubit_b);
  const QubitId pair[] = {qubit_a, qubit_b};
  return registry_->fidelity(
      pair, quantum::bell::state_vector(quantum::bell::BellState::kPsiPlus));
}

Link::RateEstimate Link::estimate_k_create(double min_fidelity) {
  const auto advice =
      egp_a_->feu().advise(min_fidelity, RequestType::kCreateKeep);
  RateEstimate estimate;
  estimate.feasible = advice.feasible;
  if (advice.feasible) {
    estimate.fidelity = advice.estimated_fidelity;
    estimate.pair_time_s = sim::to_seconds(advice.expected_time_per_pair);
  }
  return estimate;
}

Link::TestRoundEstimate Link::test_round_estimate() const {
  // Both EGPs record the same interspersed test rounds from their own
  // REPLY streams; side A is the reference (cf. WorkloadDriver's
  // calibration, which reads egp_a's FEU too).
  const FidelityEstimationUnit& feu = egp_a_->feu();
  return {feu.test_rounds_recorded(), feu.estimated_fidelity_from_tests()};
}

}  // namespace qlink::core
