// End-to-end entanglement over a 3-hop repeater chain, built through
// the network layer (Section 3.3 / Figure 1b — the NL use case at the
// scale the paper's Figure 1b sketches).
//
// Where examples/repeater_swap_nl.cpp hand-wires one swap on a single
// link, here netlayer::QuantumNetwork instantiates four nodes joined
// by three links on one simulator clock, and netlayer::SwapService
// does everything the network layer must do: fan the end-to-end
// request out into per-hop CREATEs, match link-layer OKs, Bell-measure
// at both intermediate nodes, apply the conditional corrections, and
// deliver a pair between nodes 0 and 3 that never interacted.

#include <cstdio>

#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "qstate/state_store.hpp"

using namespace qlink;
using namespace qlink::netlayer;

int main(int argc, char** argv) {
  // Optional quantum-state backend selection ("dense" default; "bell"
  // runs the same chain on the Bell-diagonal fast path with
  // Pauli-frame installs). Registered twice as a ctest acceptance
  // check, once per backend.
  qstate::BackendKind backend = qstate::BackendKind::kDense;
  if (argc > 1) {
    const auto parsed = qstate::parse_backend_kind(argv[1]);
    if (!parsed) {
      std::fprintf(stderr, "usage: %s [dense|bell]\n", argv[0]);
      return 2;
    }
    backend = *parsed;
  }

  NetworkConfig config;
  config.kind = TopologyKind::kChain;
  config.num_links = 3;
  config.seed = 42;
  config.link.backend = backend;
  config.link.pauli_twirl_installs =
      backend == qstate::BackendKind::kBellDiagonal;
  config.link.scenario = hw::ScenarioParams::lab();
  // Pairs wait in carbon memory for the slowest hop — tens of ms, far
  // beyond the bare carbon T2* of 3.5 ms. Model the decoherence-
  // protected memory of [82] (dynamical decoupling), exactly as the
  // single-link swap example does.
  config.link.scenario.nv.carbon_t2_ns = 0.5e9;  // 500 ms decoupled
  config.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;

  QuantumNetwork net(config);
  metrics::Collector collector;
  SwapService swap(net, &collector);

  std::printf("chain: %zu nodes, %zu links, one shared clock, "
              "%s state backend\n",
              net.num_nodes(), net.num_links(),
              net.registry().backend().name());

  int delivered = 0;
  E2eOk last;
  swap.set_deliver_handler([&](const E2eOk& ok) {
    ++delivered;
    last = ok;
    std::printf("end-to-end pair %u: nodes %u<->%u after %d swaps, "
                "fidelity %.4f, latency %.2f ms\n",
                ok.pair_index, ok.src, ok.dst, ok.swaps, ok.fidelity,
                sim::to_seconds(ok.deliver_time - ok.submit_time) * 1e3);
  });

  E2eRequest request;
  request.src = 0;
  request.dst = 3;
  request.num_pairs = 1;
  request.min_fidelity = 0.5;     // end-to-end target (witness bound)
  request.link_min_fidelity = 0.82;  // per-hop CREATE floor
  net.start();
  swap.request(request);

  for (int i = 0; i < 400000 && delivered < 1; ++i) {
    net.run_for(sim::duration::microseconds(100));
  }
  if (delivered < 1) {
    std::printf("no end-to-end pair delivered\n");
    return 1;
  }

  std::printf("link pairs consumed %llu, swaps %llu\n",
              static_cast<unsigned long long>(
                  swap.stats().link_pairs_consumed),
              static_cast<unsigned long long>(swap.stats().swaps));
  std::printf("(three imperfect link pairs compose: expect roughly the\n"
              " product of the per-link fidelities)\n");
  swap.release(last);

  // Fidelity > 0.5 is an entanglement witness: no separable state of
  // the two end qubits exceeds it.
  return last.fidelity > 0.5 ? 0 : 1;
}
