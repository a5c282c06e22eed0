// Chain scaling: end-to-end throughput / fidelity / latency vs. hop
// count (1-4). This is the network-layer scenario the paper sketches
// in Figure 1b, driven at sustained load through the same workload
// harness the Section 6 evaluation uses.
//
// Expected shape: throughput stays near the single-link K rate (hops
// generate in parallel; the end-to-end rate tracks the slowest hop),
// while fidelity decays roughly as the product of per-link fidelities
// and latency grows with the wait for the slowest hop.
//
// This bench doubles as the quantum-state backend comparison
// (ISSUE 2): `--backend dense`, `--backend bell`, or `--backend both`
// run the same workload on the selected qstate backend(s) and report
// wall time, executed events/second and backend counters, so the
// dense-vs-Bell-diagonal speedup is reproducible from one binary. The
// Bell-diagonal rows run with Pauli-frame installs
// (LinkConfig::pauli_twirl_installs; exact for per-pair fidelity/QBER
// at install time — see DESIGN.md "Quantum-state backends").
//
// Usage: bench_chain_scaling [--hops N] [--seconds S] [--backend B]
//                            [--seed K] [--json PATH]
//   --hops 0 (default) sweeps 1..4; a positive value runs one row.
//   --json writes machine-readable results (default
//   BENCH_chain_scaling.json in the working directory; "-" disables).

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"

using namespace qlink;
using namespace qlink::bench;

namespace {

Row run_row(std::size_t hops, qstate::BackendKind backend,
            double sim_seconds, std::uint64_t seed) {
  netlayer::NetworkConfig net_cfg = routing::make_network_config(
      routing::Graph::chain(hops + 1), core::LinkConfig{}, seed);
  net_cfg.link.scenario = hw::ScenarioParams::lab();
  // Decoherence-protected carbon memory (dynamical decoupling, [82]):
  // pairs must survive the wait for the slowest hop.
  net_cfg.link.scenario.nv.carbon_t2_ns = 0.5e9;
  net_cfg.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  net_cfg.link.backend = backend;
  // The Bell-diagonal fast path requires Bell-diagonal installs; the
  // twirl preserves each installed pair's fidelity/QBER exactly. The
  // dense rows deliberately stay un-twirled so they replay the
  // pre-qstate trajectories byte-for-byte (a regression signal, see
  // the verify skill). Event flow — issued/delivered/swaps/latency —
  // is install-twirl-independent, so the wall-clock ratio between the
  // rows still compares the same per-event op sequence; only the 4x4
  // state contents (and hence the 4th fidelity decimal) differ.
  net_cfg.link.pauli_twirl_installs =
      backend == qstate::BackendKind::kBellDiagonal;

  netlayer::QuantumNetwork net(net_cfg);
  metrics::Collector collector;
  netlayer::SwapService swap(net, &collector);

  workload::WorkloadConfig wl;
  wl.nl = {0.8, 1};
  wl.origin = workload::OriginMode::kAllA;  // always node 0 -> node N
  wl.min_fidelity = 0.5;        // end-to-end target
  wl.link_min_fidelity = 0.78;  // per-hop CREATE floor
  wl.seed = seed;
  auto driver_ptr = workload::WorkloadDriver::for_e2e(
      net, swap, wl.traffic(), wl.tuning(), collector);
  workload::WorkloadDriver& driver = *driver_ptr;

  const Stopwatch wall;
  net.start();
  driver.start();
  net.run_for(sim::duration::seconds(sim_seconds));
  driver.stop();
  const double wall_seconds = wall.seconds();

  const auto& nl = collector.kind(core::Priority::kNetworkLayer);
  const std::uint64_t events = net.simulator().events_processed();
  const qstate::BackendStats& bs = net.registry().backend().stats();
  Row row;
  row.count("hops", hops)
      .text("backend", net.registry().backend().name())
      .num("sim_seconds", sim_seconds, 3)
      .num("wall_seconds", wall_seconds, 4)
      .count("events", events)
      .num("events_per_sec",
           per_second(static_cast<double>(events), wall_seconds), 1)
      .count("issued", driver.requests_issued())
      .count("delivered", nl.pairs_delivered)
      .num("throughput_per_s",
           collector.throughput(core::Priority::kNetworkLayer), 4)
      .num("fidelity", nl.fidelity.mean(), 6)
      .num("latency_ms", nl.pair_latency_s.mean() * 1e3, 3)
      .count("swaps", swap.stats().swaps)
      .count("fast_ops", bs.fast_ops)
      .count("dense_ops", bs.dense_ops)
      .count("promotions", bs.promotions)
      .count("pool_hits", bs.pool_hits)
      .count("pool_misses", bs.pool_misses);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t hops = 0;  // 0 = sweep 1..4
  double seconds = 5.0;
  std::string backend = "both";

  Harness h("chain_scaling");
  h.parse(argc, argv, "[--hops N] [--seconds S] [--backend dense|bell|both]",
          [&](const std::string& arg, auto next) {
            if (arg == "--hops") {
              hops = static_cast<std::size_t>(next.u64());
            } else if (arg == "--seconds") {
              seconds = next.real();
            } else if (arg == "--backend") {
              backend = next();
            } else {
              return false;
            }
            return true;
          });

  std::vector<qstate::BackendKind> backends;
  if (backend == "both") {
    backends = {qstate::BackendKind::kDense,
                qstate::BackendKind::kBellDiagonal};
  } else if (const auto kind = qstate::parse_backend_kind(backend)) {
    backends = {*kind};
  } else {
    std::fprintf(stderr, "unknown backend '%s'\n", backend.c_str());
    h.usage();
  }

  print_header(
      "Chain scaling: end-to-end swapping over 1-4 hops "
      "(lab hardware, decoupled carbon memory)");
  h.columns({{"hops", "hops", 5},
             {"backend", "backend", -13},
             {"issued", "issued", 9},
             {"delivered", "delivered", 9},
             {"throughput_per_s", "thr (1/s)", 12},
             {"fidelity", "fidelity", 11},
             {"latency_ms", "latency(ms)", 11},
             {"swaps", "swaps", 8},
             {"wall_seconds", "wall(s)", 9},
             {"events_per_sec", "events/s", 12}});

  const std::size_t lo = hops == 0 ? 1 : hops;
  const std::size_t hi = hops == 0 ? 4 : hops;
  for (std::size_t n = lo; n <= hi; ++n) {
    double dense_wall = 0.0;
    for (const auto kind : backends) {
      const Row& row = h.add(run_row(n, kind, seconds, h.args.seed));
      if (kind == qstate::BackendKind::kDense) {
        dense_wall = row.get("wall_seconds");
      } else if (dense_wall > 0.0) {
        std::printf("      -> bell-diagonal speedup vs dense: %.2fx "
                    "(promotions: %.0f)\n",
                    dense_wall / row.get("wall_seconds"),
                    row.get("promotions"));
      }
    }
  }
  h.write();
  return 0;
}
