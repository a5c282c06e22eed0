// End-to-end entanglement across a 3x3 grid through the routing layer.
//
// Where examples/chain_e2e_nl.cpp drives a fixed chain, this example
// shows the full general-graph stack: routing::Graph models the grid,
// routing::Router annotates every edge from its link's FEU, selects
// candidate paths under the fidelity cost model, and admits concurrent
// requests only onto edges with free reservation capacity. Three
// requests run concurrently on edge-disjoint paths; a fourth wants an
// already-reserved corridor, queues behind the reservation table, and
// is admitted automatically when capacity releases.
//
// Registered as a ctest acceptance check once per quantum-state
// backend: it exits nonzero unless every request delivers a pair that
// beats the entanglement witness (fidelity 0.5).

#include <cstdio>
#include <vector>

#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"

using namespace qlink;
using namespace qlink::netlayer;

int main(int argc, char** argv) {
  qstate::BackendKind backend = qstate::BackendKind::kDense;
  if (argc > 1) {
    const auto parsed = qstate::parse_backend_kind(argv[1]);
    if (!parsed) {
      std::fprintf(stderr, "usage: %s [dense|bell]\n", argv[0]);
      return 2;
    }
    backend = *parsed;
  }

  // 3x3 grid: 9 nodes, 12 links.
  //   0 - 1 - 2
  //   |   |   |
  //   3 - 4 - 5
  //   |   |   |
  //   6 - 7 - 8
  routing::Graph grid = routing::Graph::grid(3, 3);

  NetworkConfig config =
      routing::make_network_config(grid, core::LinkConfig{}, /*seed=*/42);
  config.link.backend = backend;
  config.link.pauli_twirl_installs =
      backend == qstate::BackendKind::kBellDiagonal;
  config.link.scenario = hw::ScenarioParams::lab();
  // Decoherence-protected carbon memory (dynamical decoupling, [82]):
  // pairs wait for the slowest hop, as in chain_e2e_nl.cpp — but here
  // they additionally wait *behind other requests' corridors*, hundreds
  // of ms, so the grid assumes a deeper decoupling sequence (5 s).
  config.link.scenario.nv.carbon_t2_ns = 5e9;
  config.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;

  QuantumNetwork net(config);
  metrics::Collector collector;
  SwapService swap(net, &collector);

  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kFidelity;
  // Admit only each pair's cheapest corridor: at link floor 0.8 the
  // witness (0.5) survives one swap but not a 4-hop detour (Werner
  // composition 0.736^4 ~ 0.47), so contention must queue rather than
  // take a longer route. Candidate diversity under contention is
  // bench_grid_routing's story (and test_netlayer's).
  rc.k_candidates = 1;
  routing::Router router(grid, swap, rc, &collector);
  // Operate every link at the best feasible CREATE floor of the menu
  // (the FEU decides; on this homogeneous grid all land at 0.8).
  const double floor_menu[] = {0.8, 0.7, 0.6};
  router.annotate_from_network(floor_menu);

  std::printf("grid: %zu nodes, %zu links, %s state backend\n",
              net.num_nodes(), net.num_links(),
              net.registry().backend().name());
  std::printf("edge 0 annotated: floor %.2f, est fidelity %.3f, "
              "%.0f ms/pair\n",
              router.graph().params(0).link_floor,
              router.graph().params(0).fidelity,
              router.graph().params(0).pair_time_s * 1e3);

  int delivered = 0;
  double min_fidelity = 1.0;
  router.set_deliver_handler([&](const E2eOk& ok) {
    ++delivered;
    if (ok.fidelity < min_fidelity) min_fidelity = ok.fidelity;
    std::printf("request %u: nodes %u<->%u delivered after %d swap(s), "
                "fidelity %.4f, latency %.1f ms\n",
                ok.request_id, ok.src, ok.dst, ok.swaps, ok.fidelity,
                sim::to_seconds(ok.deliver_time - ok.submit_time) * 1e3);
    swap.release(ok);
  });

  // Three edge-disjoint corridors (top row, bottom row, left column)
  // run concurrently; the repeat of the top corridor must wait.
  std::vector<E2eRequest> requests(4);
  requests[0].src = 0, requests[0].dst = 2;
  requests[1].src = 6, requests[1].dst = 8;
  requests[2].src = 0, requests[2].dst = 6;
  requests[3].src = 2, requests[3].dst = 0;

  net.start();
  for (const E2eRequest& req : requests) router.submit(req);

  const auto& stats = router.stats();
  std::printf("submitted %llu: admitted %llu concurrently, blocked %llu "
              "(queued behind reservations)\n",
              static_cast<unsigned long long>(stats.submitted),
              static_cast<unsigned long long>(stats.admitted),
              static_cast<unsigned long long>(stats.blocked));

  for (int i = 0; i < 1600000 && delivered < 4; ++i) {
    net.run_for(sim::duration::microseconds(100));
  }
  if (delivered < 4) {
    std::printf("only %d of 4 requests delivered\n", delivered);
    return 1;
  }

  std::printf("max concurrent reservations %zu, blocked retries "
              "admitted: %llu requests completed in total\n",
              router.reservations().max_active(),
              static_cast<unsigned long long>(stats.completed));

  // Fidelity > 0.5 is an entanglement witness: no separable state of
  // the two end qubits exceeds it.
  return min_fidelity > 0.5 && stats.blocked >= 1 ? 0 : 1;
}
