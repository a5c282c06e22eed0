// General-graph routing bench (ISSUE 3): end-to-end entanglement on
// grid and dragonfly topologies through the routing subsystem
// (routing::Graph + PathSelector + ReservationTable + Router).
//
// Three scenarios, all on one binary:
//
//  grid       An 8x8 grid (64 nodes, 112 links, default size) runs 8
//             end-to-end requests concurrently, pinned to the 8
//             edge-disjoint row corridors (7 hops each). Exercises
//             admission at scale: all requests hold reservations at
//             once (max_concurrent == 8) and every one completes.
//  dragonfly  dragonfly(4 groups x 4 routers): multi-pair random
//             traffic through the routed WorkloadDriver mode; blocked
//             requests queue behind the reservation table and retry.
//  hetero     A 3x3 grid whose hop-count-preferred corner-to-corner
//             staircase (0-1-2-5-8) is degraded hardware (herald
//             visibility 0.25, only a 0.6 CREATE floor is feasible),
//             while the rest runs clean at 0.8. The same multi-pair
//             request is routed once under the hop-count cost model
//             (which walks into the degraded corridor) and once under
//             the fidelity model (which pays the same hop count for
//             the clean detour annotated from each link's FEU). The
//             JSON records both mean delivered fidelities and the gain.
//
// Every scenario runs under an obs::Session (NetState on all, a Monitor
// on grid + dragonfly, the Tracer on grid under --trace); the shared
// flags and output files follow bench/common.hpp's Harness contract.
//
// Usage: bench_grid_routing [--scenario all|grid|dragonfly|hetero]
//          [--rows R] [--cols C] [--requests N] [--pairs P]
//          [--seconds S] [--cap-seconds S] [--backend dense|bell]
//          [--seed K] [--json PATH|-] [--trace PATH] [--monitor PATH]
//          [--netstate PATH] [--report PATH]
//   --seconds bounds the dragonfly traffic run (default 2 simulated s);
//   --cap-seconds bounds the grid/hetero request-completion scenarios
//   (default 60 simulated s — they normally finish far earlier).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
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

struct Options {
  std::string scenario = "all";
  std::size_t rows = 8;
  std::size_t cols = 8;
  std::size_t requests = 8;
  std::uint16_t pairs = 6;
  double seconds = 2.0;
  double cap_seconds = 60.0;
  qstate::BackendKind backend = qstate::BackendKind::kBellDiagonal;
  std::uint64_t seed = 7;
};

/// The shared world of one scenario run. Heap-held parts keep
/// construction order honest (network before services).
struct World {
  metrics::Collector collector;
  std::unique_ptr<netlayer::QuantumNetwork> net;
  std::unique_ptr<netlayer::SwapService> swap;
  std::unique_ptr<routing::Router> router;

  World(const routing::Graph& graph, const Options& opt,
        routing::CostModel cost,
        std::function<void(std::size_t, core::LinkConfig&)> configure) {
    netlayer::NetworkConfig nc = routing::make_network_config(
        graph, core::LinkConfig{}, opt.seed);
    nc.link.backend = opt.backend;
    nc.link.pauli_twirl_installs =
        opt.backend == qstate::BackendKind::kBellDiagonal;
    nc.link.scenario = hw::ScenarioParams::lab();
    // Deep decoherence-protected carbon memory ([82]): corridors of 7
    // hops wait hundreds of ms for their slowest link.
    nc.link.scenario.nv.carbon_t2_ns = 5e9;
    nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
    nc.configure_link = std::move(configure);
    net = std::make_unique<netlayer::QuantumNetwork>(nc);
    swap = std::make_unique<netlayer::SwapService>(*net, &collector);
    routing::RouterConfig rc;
    rc.cost = cost;
    rc.k_candidates = 4;
    router = std::make_unique<routing::Router>(graph, *swap, rc, &collector);
  }

  /// Run until `target` requests settled or the sim-time cap.
  void run_until_settled(obs::Session& session, std::uint64_t target,
                         double cap_seconds) {
    const auto& stats = router->stats();
    while (stats.completed + stats.failed < target &&
           sim::to_seconds(net->simulator().now()) < cap_seconds) {
      net->run_for(sim::duration::milliseconds(10));
      session.poll();
    }
    session.finish();
  }

  /// The scenario's row; its session's streams and report join `h`.
  void finish(Harness& h, const obs::Session& session, const char* scenario,
              const std::string& topology, double wall_seconds) {
    const auto& nl = collector.kind(core::Priority::kNetworkLayer);
    const auto& stats = router->stats();
    const char* cost = routing::cost_model_name(router->selector().model());
    const std::uint64_t events = net->simulator().events_processed();
    Row row;
    row.text("scenario", scenario)
        .text("topology", topology)
        .text("cost", cost)
        .text("backend", net->registry().backend().name())
        .count("nodes", net->num_nodes())
        .count("links", net->num_links())
        .count("submitted", stats.submitted)
        .count("admitted", stats.admitted)
        .count("max_concurrent", router->reservations().max_active())
        .count("blocked", stats.blocked)
        .count("completed", stats.completed)
        .count("failed", stats.failed)
        .count("delivered", stats.pairs_delivered)
        .num("mean_fidelity", nl.fidelity.mean(), 6)
        .num("mean_route_hops", collector.route_length().mean(), 3)
        .num("mean_latency_ms", nl.pair_latency_s.mean() * 1e3, 3)
        .num("p50_request_latency_s", collector.request_latency_hist().p50(),
             6)
        .num("p99_request_latency_s", collector.request_latency_hist().p99(),
             6)
        .num("max_utilization", session.max_utilization(), 6)
        .num("sim_seconds", sim::to_seconds(net->simulator().now()), 3)
        .num("wall_seconds", wall_seconds, 4)
        .count("events", events)
        .num("events_per_sec",
             per_second(static_cast<double>(events), wall_seconds), 1);
    if (session.monitored()) {
      row.count("stalled_intervals", session.stalled_intervals())
          .count("peak_backlog", session.peak_backlog());
    }
    row.json("obs", session.snapshot_json());
    h.add(session, std::string(scenario) + " (" + topology + ", " + cost +
                       " cost)");
    h.add(std::move(row));
  }
};

/// Grid scenario: `requests` pinned edge-disjoint row corridors, all
/// concurrent, run to completion.
void run_grid(Harness& h, const Options& opt) {
  const std::size_t corridors = std::min(opt.requests, opt.rows);
  const routing::Graph graph = routing::Graph::grid(opt.rows, opt.cols);
  World w(graph, opt, routing::CostModel::kHopCount, nullptr);
  const double menu[] = {0.7};
  w.router->annotate_from_network(menu);

  obs::Session session(w.collector, {.run = "grid"}, h.traced());
  session.attach(*w.router);
  session.watch({.run = "grid", .target_requests = corridors});

  w.router->set_deliver_handler(
      [&w](const netlayer::E2eOk& ok) { w.swap->release(ok); });

  w.net->start();
  for (std::size_t r = 0; r < corridors; ++r) {
    netlayer::E2eRequest req;
    req.src = static_cast<std::uint32_t>(r * opt.cols);
    req.dst = static_cast<std::uint32_t>(r * opt.cols + opt.cols - 1);
    req.min_fidelity = 0.25;
    // Pin the straight row corridor: the r-th corridors are mutually
    // edge-disjoint, so all of them hold reservations at once.
    routing::Path corridor;
    for (std::size_t c = 0; c < opt.cols; ++c) {
      corridor.nodes.push_back(static_cast<std::uint32_t>(r * opt.cols + c));
      if (c + 1 < opt.cols) {
        corridor.edges.push_back(graph.find_edge(
            corridor.nodes.back(),
            static_cast<std::uint32_t>(r * opt.cols + c + 1)));
      }
    }
    w.router->submit_on(req, corridor);
  }

  const Stopwatch wall;
  w.run_until_settled(session, corridors, opt.cap_seconds);
  w.finish(h, session, "grid",
           std::to_string(opt.rows) + "x" + std::to_string(opt.cols),
           wall.seconds());
}

/// Dragonfly scenario: random multi-pair routed traffic for a fixed
/// span of simulated time.
void run_dragonfly(Harness& h, const Options& opt) {
  World w(routing::Graph::dragonfly(4, 4), opt,
          routing::CostModel::kHopCount, nullptr);
  const double menu[] = {0.7};
  w.router->annotate_from_network(menu);

  workload::WorkloadConfig wl;
  wl.nl = {0.9, 2};
  wl.origin = workload::OriginMode::kRandom;
  wl.min_fidelity = 0.5;
  wl.seed = opt.seed;
  auto driver = workload::WorkloadDriver::for_routed(
      *w.router, wl.traffic(), wl.tuning(), w.collector);

  obs::Session session(w.collector, {.run = "dragonfly"});
  session.attach(*w.router);
  // Random traffic legitimately has quiet 100 ms intervals with a
  // blocked request in the queue; only a sustained run is a stall.
  session.watch({.run = "dragonfly", .stall_consecutive = 3});
  driver->set_session(&session);

  const Stopwatch wall;
  w.net->start();
  driver->start();
  w.net->run_for(sim::duration::seconds(opt.seconds));
  driver->stop();
  session.finish();
  w.finish(h, session, "dragonfly", "dragonfly4x4", wall.seconds());
}

/// Heterogeneous scenario: corner-to-corner multi-pair request on a
/// 3x3 grid whose hop-count-preferred staircase is degraded hardware.
/// Returns the mean delivered fidelity.
double run_hetero(Harness& h, const Options& opt, routing::CostModel cost) {
  const routing::Graph grid = routing::Graph::grid(3, 3);
  // The staircase the hop-count tie-break walks from 0 to 8.
  std::vector<std::size_t> degraded;
  for (const auto& [a, b] :
       {std::pair{0u, 1u}, {1u, 2u}, {2u, 5u}, {5u, 8u}}) {
    degraded.push_back(grid.find_edge(a, b));
  }
  World w(grid, opt, cost,
          [degraded](std::size_t link, core::LinkConfig& lc) {
            // Badly distinguishable photons: the herald's post-state
            // cannot support a high CREATE floor.
            if (std::count(degraded.begin(), degraded.end(), link) > 0) {
              lc.scenario.herald.visibility = 0.25;
            }
          });
  // Operate every link at the best feasible quality set-point: clean
  // links land at 0.8, the degraded staircase only supports 0.6.
  const double menu[] = {0.8, 0.7, 0.6};
  w.router->annotate_from_network(menu);

  w.router->set_deliver_handler(
      [&w](const netlayer::E2eOk& ok) { w.swap->release(ok); });

  obs::Session session(w.collector,
                       {.run = cost == routing::CostModel::kHopCount
                                   ? "hetero-hops"
                                   : "hetero-fidelity"});
  session.attach(*w.router);

  netlayer::E2eRequest req;
  req.src = 0;
  req.dst = 8;
  req.num_pairs = opt.pairs;
  req.min_fidelity = 0.25;

  const Stopwatch wall;
  w.net->start();
  w.router->submit(req);
  w.run_until_settled(session, 1, opt.cap_seconds);
  w.finish(h, session, "hetero", "grid3x3-degraded-staircase",
           wall.seconds());
  return h.rows().back().get("mean_fidelity");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Harness h("grid_routing", "Grid routing run report");
  h.parse(argc, argv,
          "[--scenario all|grid|dragonfly|hetero] [--rows R] [--cols C] "
          "[--requests N] [--pairs P] [--seconds S] [--cap-seconds S] "
          "[--backend dense|bell]",
          [&opt](const std::string& arg, auto next) {
            if (arg == "--scenario") {
              opt.scenario = next();
            } else if (arg == "--rows") {
              opt.rows = next.u64();
            } else if (arg == "--cols") {
              opt.cols = next.u64();
            } else if (arg == "--requests") {
              opt.requests = next.u64();
            } else if (arg == "--pairs") {
              opt.pairs = static_cast<std::uint16_t>(next.u64());
            } else if (arg == "--seconds") {
              opt.seconds = next.real();
            } else if (arg == "--cap-seconds") {
              opt.cap_seconds = next.real();
            } else if (arg == "--backend") {
              const auto kind = qstate::parse_backend_kind(next());
              if (!kind) return false;
              opt.backend = *kind;
            } else {
              return false;
            }
            return true;
          });
  opt.seed = h.args.seed;
  if (opt.scenario != "all" && opt.scenario != "grid" &&
      opt.scenario != "dragonfly" && opt.scenario != "hetero") {
    std::fprintf(stderr, "unknown scenario '%s'\n", opt.scenario.c_str());
    h.usage();
  }
  if (opt.rows < 1 || opt.cols < 2 || opt.requests < 1 || opt.pairs < 1 ||
      opt.seconds <= 0.0 || opt.cap_seconds <= 0.0) {
    std::fprintf(stderr,
                 "need rows >= 1, cols >= 2 (each corridor spans a row), "
                 "requests/pairs >= 1, positive seconds\n");
    h.usage();
  }

  print_header(
      "Grid routing: fidelity-aware path selection + per-request "
      "reservations on general graphs");
  h.columns({{"scenario", "scenario", -10},
             {"topology", "topology", -26},
             {"cost", "cost", -8},
             {"nodes", "nodes", 5},
             {"links", "links", 5},
             {"submitted", "subm", 5},
             {"completed", "done", 5},
             {"max_concurrent", "maxconc", 7},
             {"blocked", "blckd", 5},
             {"delivered", "pairs", 5},
             {"mean_fidelity", "fidelity", 9},
             {"mean_latency_ms", "lat(ms)", 10},
             {"sim_seconds", "sim(s)", 8},
             {"wall_seconds", "wall(s)", 8},
             {"events_per_sec", "events/s", 11}});

  const bool all = opt.scenario == "all";
  if (all || opt.scenario == "grid") run_grid(h, opt);
  if (all || opt.scenario == "dragonfly") run_dragonfly(h, opt);
  const bool hetero = all || opt.scenario == "hetero";
  double gain = 0.0;
  if (hetero) {
    const double hops = run_hetero(h, opt, routing::CostModel::kHopCount);
    const double fid = run_hetero(h, opt, routing::CostModel::kFidelity);
    gain = fid - hops;
    std::printf("  -> fidelity-aware routing: mean delivered fidelity "
                "%.4f vs %.4f hop-count (gain %+.4f)\n",
                fid, hops, gain);
  }
  Row summary;
  summary.count("stalled_intervals", h.stalled_intervals())
      .count("peak_backlog", h.peak_backlog())
      .num("hot_edge_max_utilization", h.max_utilization(), 6);
  // null, not a fabricated 0.0, when the hetero comparison did not run.
  if (hetero) {
    summary.num("hetero_fidelity_gain", gain, 6);
  } else {
    summary.json("hetero_fidelity_gain", "null");
  }
  h.write(summary);
  return 0;
}
