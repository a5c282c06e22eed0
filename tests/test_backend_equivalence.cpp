#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "metrics/collector.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "routing/router.hpp"
#include "workload/workload.hpp"

/// Backend-equivalence acceptance tests (ISSUE 2): identically seeded
/// *full* simulation runs — a single link and a 3-hop chain — must
/// report fidelity/QBER within 1e-6 between the kDense and
/// kBellDiagonal store kinds on Clifford+Pauli scenarios, and every kind
/// must replay byte-identical delivery sequences from one seed.
///
/// The Clifford+Pauli scenario is the lab hardware with (a) infinite
/// electron T1, so all decay is pure (Pauli) dephasing, and (b)
/// Pauli-frame installs (LinkConfig::pauli_twirl_installs), so every
/// heralded state enters the registry exactly Bell-diagonal. Under
/// those conditions the Bell-diagonal closed forms are exact, both
/// backends consume the shared Random stream identically, and whole
/// runs agree to float rounding.

namespace qlink {
namespace {

using qstate::BackendKind;

hw::ScenarioParams pauli_scenario() {
  hw::ScenarioParams sc = hw::ScenarioParams::lab();
  sc.nv.electron_t1_ns = -1.0;  // infinite: decay is pure dephasing
  // Decoherence-protected carbon memory, as in bench_chain_scaling.
  sc.nv.carbon_t2_ns = 0.5e9;
  sc.nv.carbon_coupling_rad_per_s /= 10.0;
  return sc;
}

struct SingleLinkResult {
  std::uint64_t delivered = 0;
  double fidelity = 0.0;
  double qber_x = -1.0, qber_y = -1.0, qber_z = -1.0;
};

SingleLinkResult run_single_link(BackendKind backend) {
  core::LinkConfig cfg;
  cfg.scenario = pauli_scenario();
  cfg.seed = 5;
  cfg.backend = backend;
  cfg.pauli_twirl_installs = true;
  core::Link link(cfg);

  metrics::Collector collector;
  workload::WorkloadConfig wl;
  wl.ck = {0.6, 1};  // K-type: fidelity through the registry
  wl.md = {0.3, 1};  // M-type: QBER correlations
  wl.seed = 5;
  auto driver_ptr = workload::WorkloadDriver::for_link(
      link, wl.traffic(), wl.tuning(), collector);
  workload::WorkloadDriver& driver = *driver_ptr;

  link.start();
  driver.start();
  link.run_for(sim::duration::seconds(2.0));
  driver.stop();

  SingleLinkResult out;
  const auto& ck = collector.kind(core::Priority::kCreateKeep);
  out.delivered = ck.pairs_delivered;
  out.fidelity = ck.fidelity.mean();
  out.qber_x = collector.qber(quantum::gates::Basis::kX).value_or(-1.0);
  out.qber_y = collector.qber(quantum::gates::Basis::kY).value_or(-1.0);
  out.qber_z = collector.qber(quantum::gates::Basis::kZ).value_or(-1.0);
  return out;
}

struct ChainResult {
  std::uint64_t delivered = 0;
  std::uint64_t swaps = 0;
  double fidelity = 0.0;
  double latency_s = 0.0;
  std::uint64_t promotions = 0;
  std::string delivery_log;
};

ChainResult run_chain(BackendKind backend, double sim_seconds) {
  netlayer::NetworkConfig cfg = routing::make_network_config(
      routing::Graph::chain(4), core::LinkConfig{}, /*seed=*/7);
  cfg.link.scenario = pauli_scenario();
  cfg.link.backend = backend;
  cfg.link.pauli_twirl_installs = true;

  netlayer::QuantumNetwork net(cfg);
  metrics::Collector collector;
  netlayer::SwapService swap(net, &collector);

  workload::WorkloadConfig wl;
  wl.nl = {0.8, 1};
  wl.origin = workload::OriginMode::kAllA;
  wl.min_fidelity = 0.5;
  wl.link_min_fidelity = 0.78;
  wl.seed = 7;
  auto driver_ptr = workload::WorkloadDriver::for_e2e(
      net, swap, wl.traffic(), wl.tuning(), collector);
  workload::WorkloadDriver& driver = *driver_ptr;

  // After the driver (its constructor installs the default consuming
  // handler): log every delivery byte-exactly, then release it.
  std::ostringstream log;
  swap.set_deliver_handler([&](const netlayer::E2eOk& ok) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &ok.fidelity, sizeof(bits));
    log << ok.request_id << ':' << ok.pair_index << ':' << ok.src << "->"
        << ok.dst << '@' << ok.deliver_time << '#' << std::hex << bits
        << std::dec << '\n';
    swap.release(ok);
  });

  net.start();
  driver.start();
  net.run_for(sim::duration::seconds(sim_seconds));
  driver.stop();

  ChainResult out;
  const auto& nl = collector.kind(core::Priority::kNetworkLayer);
  out.delivered = nl.pairs_delivered;
  out.swaps = swap.stats().swaps;
  out.fidelity = nl.fidelity.mean();
  out.latency_s = nl.pair_latency_s.mean();
  out.promotions = net.registry().backend().stats().promotions;
  out.delivery_log = log.str();
  return out;
}

TEST(BackendEquivalence, SingleLinkFidelityAndQberWithin1e6) {
  const SingleLinkResult dense = run_single_link(BackendKind::kDense);
  const SingleLinkResult bell = run_single_link(BackendKind::kBellDiagonal);

  ASSERT_GT(dense.delivered, 0u);
  EXPECT_EQ(dense.delivered, bell.delivered);
  EXPECT_NEAR(dense.fidelity, bell.fidelity, 1e-6);
  EXPECT_NEAR(dense.qber_x, bell.qber_x, 1e-6);
  EXPECT_NEAR(dense.qber_y, bell.qber_y, 1e-6);
  EXPECT_NEAR(dense.qber_z, bell.qber_z, 1e-6);
}

TEST(BackendEquivalence, ThreeHopChainFidelityWithin1e6) {
  const ChainResult dense = run_chain(BackendKind::kDense, 3.0);
  const ChainResult bell = run_chain(BackendKind::kBellDiagonal, 3.0);

  ASSERT_GT(dense.delivered, 0u);
  EXPECT_EQ(dense.delivered, bell.delivered);
  EXPECT_EQ(dense.swaps, bell.swaps);
  EXPECT_NEAR(dense.fidelity, bell.fidelity, 1e-6);
  EXPECT_NEAR(dense.latency_s, bell.latency_s, 1e-9);
  // The whole Clifford+Pauli run must stay on the structured fast path.
  EXPECT_EQ(bell.promotions, 0u);
}

TEST(BackendEquivalence, SameSeedIsByteIdenticalOnBothBackends) {
  for (const auto backend :
       {BackendKind::kDense, BackendKind::kBellDiagonal}) {
    const ChainResult a = run_chain(backend, 2.0);
    const ChainResult b = run_chain(backend, 2.0);
    ASSERT_GT(a.delivered, 0u);
    EXPECT_EQ(a.delivery_log, b.delivery_log)
        << "backend " << static_cast<int>(backend);
  }
}

}  // namespace
}  // namespace qlink
