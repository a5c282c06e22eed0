// Million-request workload engine bench (ISSUE 9): the flow-level
// fast path (netlayer::FlowPlane) under streaming ArrivalProcess
// traffic, plus the oracle that keeps it honest.
//
// Two scenario families, one binary:
//
//  scale        dragonfly(32 x 32): 1024 nodes / 16368 links. A
//               weighted three-class traffic mix (bulk / interactive /
//               batch, each with a pinned endpoint pool so the
//               router's path cache stays bounded) streams --requests
//               Poisson arrivals through Router + FlowPlane. One
//               scheduled event per delivered pair and O(1) state per
//               in-flight request is what makes 1M+ requests on a
//               1000+-node topology a minutes-of-wall-time run, with
//               Monitor/NetState/phase stats still live.
//  oracle-full  a 3-node chain driven full-detail (QuantumNetwork +
//  oracle-flow  SwapService) and flow-level (FlowPlane calibrated from
//               an identical standalone link), same seed, same Poisson
//               arrival train, same Router plumbing. The JSON's
//               fastpath_tail_error scalar is the worst relative error
//               across p50 / p99 request latency and mean delivered
//               fidelity; the binary exits non-zero when it exceeds
//               --tol (default 0.35 — flow collapses the MHP's
//               attempt-level jitter into a geometric model, so tails
//               agree to tens of percent, not exactly; see
//               flow_plane.hpp "Validity conditions").
//  island-mono  sharded-engine comparison (ISSUE 10, opt-in via
//  island-shard --shards S >= 2): the same dragonfly carved into S
//               node islands serving identical per-island traffic.
//               island-mono runs one Router + FlowPlane over the full
//               graph on a single heap; island-shard gives each
//               island its own shard (sim::ShardedEngine) + induced
//               subgraph + Router, with live cross-shard heartbeat
//               channels exercising the lookahead/barrier protocol.
//               Both legs run with the path cache off so every
//               request pays path search against the graph its
//               router sees. The JSON's sharded_speedup scalar
//               (mono wall / shard wall) is gated >= 2 in CI.
//
// The scale row runs under an obs::Session (Monitor + NetState); its
// streams and report are what --monitor/--netstate/--report write (see
// bench/common.hpp's Harness contract).
//
// Usage: bench_workload_scale [--requests N] [--groups G] [--routers R]
//          [--oracle-requests N] [--utilization U] [--cap-seconds S]
//          [--tol T] [--shards S] [--sharded-requests N]
//          [--seed K] [--json PATH|-] [--monitor PATH]
//          [--netstate PATH] [--report PATH]
//   --utilization is the offered load per distinct endpoint pair
//   relative to one link's calibrated pair time (default 0.2; the
//   batch class runs at 2x because its requests carry two pairs).
//   requests_per_sec (scale row, completed requests per wall second)
//   is the perf headline; CI gates it with bench_diff's perf class and
//   asserts fastpath_tail_error <= fastpath_tolerance.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "net/channel.hpp"
#include "netlayer/flow_plane.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/snapshot.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"
#include "sim/sharded_engine.hpp"
#include "workload/arrival.hpp"

using namespace qlink;
using namespace qlink::bench;

namespace {

struct Options {
  std::uint64_t requests = 1000000;
  std::size_t groups = 32;
  std::size_t routers = 32;
  std::uint64_t oracle_requests = 400;
  double utilization = 0.2;
  double oracle_utilization = 0.3;
  double cap_seconds = 7200.0;         // scale-run simulated backstop
  double oracle_cap_seconds = 600.0;   // oracle simulated backstop
  double tol = 0.35;
  /// 0 = skip the sharded comparison; >= 2 adds the island-mono /
  /// island-shard rows and the sharded_speedup scalar (ISSUE 10).
  std::size_t shards = 0;
  std::uint64_t sharded_requests = 6000;
  std::uint64_t seed = 7;
};

/// The CREATE-floor set-point every link (full-detail and flow) is
/// operated and annotated at.
constexpr double kFloorMenu[] = {0.7};

/// One hardware model for every link in this bench: the lab scenario
/// with deep decoherence-protected carbon memory (cf.
/// bench_grid_routing), so request latency is generation-dominated —
/// the regime the flow model is valid in.
core::LinkConfig make_link_config(std::uint64_t seed) {
  core::LinkConfig lc;
  lc.scenario = hw::ScenarioParams::lab();
  lc.scenario.nv.carbon_t2_ns = 5e9;
  lc.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  lc.backend = qstate::BackendKind::kBellDiagonal;
  lc.pauli_twirl_installs = true;
  lc.seed = seed;
  return lc;
}

/// Probe the flow operating menu once from a standalone full-detail
/// link built from the same config the oracle network uses.
netlayer::FlowCalibration calibrate(std::uint64_t seed) {
  core::Link link(make_link_config(seed));
  return netlayer::FlowCalibration::from_link(link, kFloorMenu);
}

/// The scale mix: three weighted classes over pinned endpoint pools
/// sized so every distinct (src, dst) pair sees the same arrival rate
/// (weight / pool_size equal across classes) — per-pair offered load
/// is then total_rate / 70 regardless of class, and the batch class's
/// two pairs per request double its utilization, not its rate.
std::shared_ptr<workload::ArrivalProcess> make_mix(double total_rate_hz,
                                                   std::size_t num_nodes,
                                                   std::uint64_t seed) {
  sim::Random pick(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto pool = [&](std::size_t n) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    pairs.reserve(n);
    const auto hi = static_cast<std::int64_t>(num_nodes) - 1;
    while (pairs.size() < n) {
      const auto src = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
      const auto dst = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
      if (src == dst) continue;
      pairs.emplace_back(src, dst);
    }
    return pairs;
  };
  std::vector<workload::ClassMixProcess::Class> classes(3);
  classes[0].weight = 4.0;
  classes[0].shape.name = "bulk";
  classes[0].shape.endpoints = pool(40);
  classes[1].weight = 2.0;
  classes[1].shape.name = "interactive";
  classes[1].shape.endpoints = pool(20);
  classes[2].weight = 1.0;
  classes[2].shape.name = "batch";
  classes[2].shape.num_pairs = 2;
  classes[2].shape.endpoints = pool(10);
  return std::make_shared<workload::ClassMixProcess>(
      std::make_shared<workload::PoissonProcess>(total_rate_hz),
      std::move(classes));
}

/// A flow plane over `graph`'s edges.
netlayer::FlowPlaneConfig flow_config(const routing::Graph& graph,
                                      const netlayer::FlowCalibration& cal,
                                      metrics::Collector* collector,
                                      std::uint64_t seed) {
  netlayer::FlowPlaneConfig fc;
  fc.num_nodes = graph.num_nodes();
  fc.edges.reserve(graph.num_edges());
  for (const routing::Graph::Edge& e : graph.edges()) {
    fc.edges.emplace_back(e.a, e.b);
  }
  fc.calibration = cal;
  fc.collector = collector;
  fc.seed = seed;
  return fc;
}

/// The columns every row shares, from the run's router counters, its
/// collector and engine totals. Callers append "obs" (and the
/// watchdog scalars on observed rows).
Row make_row(const char* scenario, const char* plane,
             const std::string& topology, const routing::Graph& graph,
             const routing::Router::Stats& rs,
             const metrics::Collector& collector, double sim_seconds,
             std::uint64_t events, double wall_seconds) {
  const auto& nl = collector.kind(core::Priority::kNetworkLayer);
  Row row;
  row.text("scenario", scenario)
      .text("plane", plane)
      .text("topology", topology)
      .count("nodes", graph.num_nodes())
      .count("links", graph.num_edges())
      .count("submitted", rs.submitted)
      .count("admitted", rs.admitted)
      .count("blocked", rs.blocked)
      .count("completed", rs.completed)
      .count("failed", rs.failed)
      .count("delivered", rs.pairs_delivered)
      .num("mean_fidelity", nl.fidelity.mean(), 6)
      .num("mean_latency_ms", nl.request_latency_s.mean() * 1e3, 3)
      .num("p50_request_latency_s", collector.request_latency_hist().p50(), 6)
      .num("p99_request_latency_s", collector.request_latency_hist().p99(), 6)
      .num("requests_per_sec",
           per_second(static_cast<double>(rs.completed), wall_seconds), 1)
      .count("open_evicted", collector.open_evicted())
      .num("sim_seconds", sim_seconds, 3)
      .num("wall_seconds", wall_seconds, 4)
      .count("events", events)
      .num("events_per_sec",
           per_second(static_cast<double>(events), wall_seconds), 1);
  return row;
}

/// make_row for a single router's run, with its obs::Snapshot (no
/// observers attached).
Row router_row(const char* scenario, const char* plane,
               const std::string& topology, const routing::Graph& graph,
               const routing::Router& router,
               const metrics::Collector& collector,
               const sim::Simulator& simulator, double wall_seconds) {
  Row row = make_row(scenario, plane, topology, graph, router.stats(),
                     collector, sim::to_seconds(simulator.now()),
                     simulator.events_processed(), wall_seconds);
  obs::Snapshot snap;
  snap.collector = &collector;
  snap.router = &router.stats();
  snap.simulator = &simulator;
  return row.json("obs", snap.json());
}

/// Drive `simulator` until the driver has issued every request and the
/// router has settled them all (or the simulated-time cap strikes).
template <typename RunFor>
void run_to_completion(const workload::WorkloadDriver& driver,
                       const routing::Router& router,
                       const sim::Simulator& simulator, RunFor&& run_for,
                       std::uint64_t target, double cap_seconds) {
  const auto& rs = router.stats();
  while ((driver.requests_issued() < target ||
          rs.completed + rs.failed + rs.rejected < rs.submitted) &&
         sim::to_seconds(simulator.now()) < cap_seconds) {
    run_for(sim::duration::milliseconds(500));
  }
}

std::string dragonfly_name(const Options& opt) {
  return "dragonfly" + std::to_string(opt.groups) + "x" +
         std::to_string(opt.routers);
}

void run_scale(Harness& h, const Options& opt) {
  routing::Graph graph = routing::Graph::dragonfly(opt.groups, opt.routers);
  const netlayer::FlowCalibration cal = calibrate(opt.seed);
  const netlayer::FlowCalibration::Entry* point = cal.best();
  if (point == nullptr) {
    std::fprintf(stderr, "flow calibration: no feasible operating point\n");
    std::exit(1);
  }

  metrics::Collector collector;
  // Streaming run: bound the in-flight map (a leaked request must not
  // grow memory for the rest of the run; evictions land in the JSON).
  collector.set_open_capacity(1u << 16);
  netlayer::FlowPlane plane(flow_config(graph, cal, &collector, opt.seed));

  routing::RouterConfig rc;
  rc.k_candidates = 2;
  rc.cache_paths = true;  // bounded endpoint pools -> bounded cache
  routing::Router router(graph, plane, rc, &collector);
  router.annotate_from_network(kFloorMenu);

  // Offered load: 70 equal-rate endpoint pairs (see make_mix), each at
  // --utilization of one link's calibrated service rate.
  const double svc_s = std::max(point->pair_time_s, 1e-9);
  const double total_rate_hz = opt.utilization * 70.0 / svc_s;

  workload::TrafficConfig traffic;
  traffic.min_fidelity = 0.4;
  traffic.link_min_fidelity = kFloorMenu[0];
  traffic.arrivals = make_mix(total_rate_hz, graph.num_nodes(), opt.seed);
  workload::DriverConfig tuning;
  tuning.seed = opt.seed;
  tuning.poll_interval = sim::duration::milliseconds(10);
  tuning.max_requests = opt.requests;
  auto driver = workload::WorkloadDriver::for_routed(router, traffic,
                                                     tuning, collector);

  // 16k edges per NetState record: sample once per simulated second.
  obs::Session session(collector, {.interval = sim::duration::seconds(1),
                                   .run = "scale"});
  session.attach(router);
  // Random traffic: quiet 100 ms intervals happen.
  session.watch({.run = "scale",
                 .target_requests = opt.requests,
                 .stall_consecutive = 10});
  driver->set_session(&session);

  const Stopwatch wall;
  collector.begin(plane.simulator().now());
  driver->start();
  run_to_completion(*driver, router, plane.simulator(),
                    [&plane](sim::SimTime span) { plane.run_for(span); },
                    opt.requests, opt.cap_seconds);
  driver->stop();
  collector.end(plane.simulator().now());
  session.finish();

  const std::string topology = dragonfly_name(opt);
  Row row = make_row("scale", "flow", topology, graph, router.stats(),
                     collector, sim::to_seconds(plane.simulator().now()),
                     plane.simulator().events_processed(), wall.seconds());
  row.count("stalled_intervals", session.stalled_intervals())
      .count("peak_backlog", session.peak_backlog())
      .json("obs", session.snapshot_json());
  h.add(session, "scale (" + topology + ", flow plane)");
  h.add(std::move(row));
}

// ---- Sharded comparison (ISSUE 10) ----------------------------------
//
// The same dragonfly carved into `--shards` contiguous islands
// (sim::ShardAssignment::blocks keeps whole groups together), with all
// traffic intra-island — the only partition the islands model admits,
// since quantum state cannot span simulators. Two legs, identical
// logical workload:
//
//  island-mono   one FlowPlane + Router over the full topology, one
//                event heap — today's monolithic shape;
//  island-shard  one FlowPlane + Router per island over its
//                Graph::induced subgraph, all on one ShardedEngine,
//                islands coupled by 50 ms classical heartbeat channels
//                (the conservative lookahead the engine advances on).
//
// Both legs run with the path cache off, so every request pays its
// path search against the graph the router actually sees: the full
// 16k-edge dragonfly for mono, the island's ~2k edges for shard. That
// per-request locality — not thread count — is what sharded_speedup
// (mono wall / shard wall, the CI-gated scalar) measures; on a
// multi-core host the engine additionally runs islands on threads.

/// Per-island node lists (global ids, ascending) under the blocks rule.
std::vector<std::vector<std::uint32_t>> island_nodes(
    std::size_t num_nodes, std::size_t shards) {
  const auto assign = sim::ShardAssignment::blocks(num_nodes, shards);
  std::vector<std::vector<std::uint32_t>> nodes(shards);
  for (std::uint32_t n = 0; n < num_nodes; ++n) {
    nodes[assign.shard(n)].push_back(n);
  }
  return nodes;
}

/// The scale mix confined to one island. Endpoints are drawn as
/// *positions* into `nodes` from a seed shared by both legs, so the
/// legs see identical logical pairs: the mono leg maps positions to
/// global ids (`global_ids`), the island leg to the induced subgraph's
/// local ids (position i *is* local id i — Graph::induced's contract).
void append_island_classes(
    std::vector<workload::ClassMixProcess::Class>& classes,
    const std::vector<std::uint32_t>& nodes, std::uint64_t seed,
    bool global_ids) {
  sim::Random pick(seed ^ 0x9e3779b97f4a7c15ULL);
  const auto pool = [&](std::size_t n) {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
    pairs.reserve(n);
    const auto hi = static_cast<std::int64_t>(nodes.size()) - 1;
    while (pairs.size() < n) {
      const auto src = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
      const auto dst = static_cast<std::uint32_t>(pick.uniform_int(0, hi));
      if (src == dst) continue;
      pairs.emplace_back(global_ids ? nodes[src] : src,
                         global_ids ? nodes[dst] : dst);
    }
    return pairs;
  };
  workload::ClassMixProcess::Class bulk;
  bulk.weight = 4.0;
  bulk.shape.name = "bulk";
  bulk.shape.endpoints = pool(40);
  workload::ClassMixProcess::Class interactive;
  interactive.weight = 2.0;
  interactive.shape.name = "interactive";
  interactive.shape.endpoints = pool(20);
  workload::ClassMixProcess::Class batch;
  batch.weight = 1.0;
  batch.shape.name = "batch";
  batch.shape.num_pairs = 2;
  batch.shape.endpoints = pool(10);
  classes.push_back(std::move(bulk));
  classes.push_back(std::move(interactive));
  classes.push_back(std::move(batch));
}

std::uint64_t island_seed(const Options& opt, std::size_t island) {
  return opt.seed + 0x100000001b3ULL * (island + 1);
}

workload::TrafficConfig sharded_traffic(
    std::shared_ptr<workload::ArrivalProcess> arrivals) {
  workload::TrafficConfig traffic;
  traffic.min_fidelity = 0.4;
  traffic.link_min_fidelity = kFloorMenu[0];
  traffic.arrivals = std::move(arrivals);
  return traffic;
}

routing::RouterConfig sharded_router_config() {
  routing::RouterConfig rc;
  rc.k_candidates = 2;
  rc.cache_paths = false;  // pay path search per request (see above)
  return rc;
}

/// Monolithic comparator: all islands' classes behind one Poisson train
/// of the summed rate, one router over the full graph. Returns its wall
/// seconds.
double run_island_mono(Harness& h, const Options& opt,
                       const routing::Graph& graph,
                       const netlayer::FlowCalibration& cal,
                       double island_rate_hz, std::uint64_t target) {
  const auto islands = island_nodes(graph.num_nodes(), opt.shards);
  metrics::Collector collector;
  netlayer::FlowPlane plane(flow_config(graph, cal, &collector, opt.seed));
  plane.simulator().set_telemetry(true);

  routing::Router router(graph, plane, sharded_router_config(),
                         &collector);
  router.annotate_from_network(kFloorMenu);

  std::vector<workload::ClassMixProcess::Class> classes;
  for (std::size_t s = 0; s < opt.shards; ++s) {
    append_island_classes(classes, islands[s], island_seed(opt, s),
                          /*global_ids=*/true);
  }
  auto mix = std::make_shared<workload::ClassMixProcess>(
      std::make_shared<workload::PoissonProcess>(
          island_rate_hz * static_cast<double>(opt.shards)),
      std::move(classes));

  workload::DriverConfig tuning;
  tuning.seed = opt.seed;
  tuning.poll_interval = sim::duration::milliseconds(10);
  tuning.max_requests = target;
  auto driver = workload::WorkloadDriver::for_routed(
      router, sharded_traffic(mix), tuning, collector);

  const Stopwatch wall;
  collector.begin(plane.simulator().now());
  driver->start();
  run_to_completion(*driver, router, plane.simulator(),
                    [&plane](sim::SimTime span) { plane.run_for(span); },
                    target, opt.cap_seconds);
  driver->stop();
  collector.end(plane.simulator().now());

  const double wall_seconds = wall.seconds();
  Row row = make_row("island-mono", "flow", dragonfly_name(opt), graph,
                     router.stats(), collector,
                     sim::to_seconds(plane.simulator().now()),
                     plane.simulator().events_processed(), wall_seconds);
  row.json("obs", "{}");
  h.add(std::move(row));
  return wall_seconds;
}

/// The sharded leg: per-island planes/routers/drivers on one engine.
/// Returns its wall seconds.
double run_island_shard(Harness& h, const Options& opt,
                        const routing::Graph& graph,
                        const netlayer::FlowCalibration& cal,
                        double island_rate_hz, std::uint64_t per_island) {
  const auto islands = island_nodes(graph.num_nodes(), opt.shards);
  const std::size_t shards = opt.shards;

  sim::ShardedEngine::Config ecfg;
  ecfg.num_shards = shards;
  sim::ShardedEngine engine(ecfg);

  std::vector<std::unique_ptr<metrics::Collector>> collectors;
  std::vector<std::unique_ptr<routing::Graph>> graphs;
  std::vector<std::unique_ptr<netlayer::FlowPlane>> planes;
  std::vector<std::unique_ptr<routing::Router>> routers;
  std::vector<std::unique_ptr<workload::WorkloadDriver>> drivers;
  for (std::size_t s = 0; s < shards; ++s) {
    collectors.push_back(std::make_unique<metrics::Collector>());
    graphs.push_back(
        std::make_unique<routing::Graph>(graph.induced(islands[s])));
    netlayer::FlowPlaneConfig fc = flow_config(
        *graphs[s], cal, collectors[s].get(), island_seed(opt, s));
    fc.engine = &engine;
    fc.shard = s;
    planes.push_back(
        std::make_unique<netlayer::FlowPlane>(std::move(fc)));
    routers.push_back(std::make_unique<routing::Router>(
        *graphs[s], *planes[s], sharded_router_config(),
        collectors[s].get()));
    routers[s]->annotate_from_network(kFloorMenu);

    std::vector<workload::ClassMixProcess::Class> classes;
    append_island_classes(classes, islands[s], island_seed(opt, s),
                          /*global_ids=*/false);
    auto mix = std::make_shared<workload::ClassMixProcess>(
        std::make_shared<workload::PoissonProcess>(island_rate_hz),
        std::move(classes));
    workload::DriverConfig tuning;
    tuning.seed = island_seed(opt, s);
    tuning.poll_interval = sim::duration::milliseconds(10);
    tuning.max_requests = per_island;
    drivers.push_back(workload::WorkloadDriver::for_routed(
        *routers[s], sharded_traffic(mix), tuning, *collectors[s]));
  }

  // Heartbeats over the shard-crossing seam: a classical channel
  // between consecutive islands, delay 50 ms (the lookahead), a frame
  // each way every 100 ms. This is the cross-shard traffic the round
  // protocol conservatively waits on.
  const sim::SimTime heartbeat_delay = sim::duration::milliseconds(50);
  const sim::SimTime heartbeat_period = sim::duration::milliseconds(100);
  std::vector<std::unique_ptr<sim::Random>> channel_randoms;
  std::vector<std::unique_ptr<net::ClassicalChannel>> channels;
  std::atomic<std::uint64_t> heartbeats{0};
  for (std::size_t s = 0; s + 1 < shards; ++s) {
    channel_randoms.push_back(
        std::make_unique<sim::Random>(island_seed(opt, s) ^ 0x5eedULL));
    channel_randoms.push_back(
        std::make_unique<sim::Random>(island_seed(opt, s + 1) ^ 0x5eedULL));
    channels.push_back(std::make_unique<net::ClassicalChannel>(
        engine.ref(s), *channel_randoms[2 * s], engine.ref(s + 1),
        *channel_randoms[2 * s + 1],
        "heartbeat." + std::to_string(s), heartbeat_delay));
    channels[s]->set_receiver(0, [&heartbeats](std::vector<std::uint8_t>) {
      heartbeats.fetch_add(1, std::memory_order_relaxed);
    });
    channels[s]->set_receiver(1, [&heartbeats](std::vector<std::uint8_t>) {
      heartbeats.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // One self-rescheduling tick per island, on that island's own heap.
  std::vector<std::function<void()>> ticks(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    ticks[s] = [&, s] {
      if (s + 1 < shards) channels[s]->send_from(0, {0xA1});
      if (s > 0) channels[s - 1]->send_from(1, {0xB2});
      engine.sim(s).schedule_at(engine.sim(s).now() + heartbeat_period,
                                [&ticks, s] { ticks[s](); },
                                "bench.heartbeat");
    };
    engine.sim(s).schedule_at(engine.sim(s).now() + heartbeat_period,
                              [&ticks, s] { ticks[s](); },
                              "bench.heartbeat");
  }

  const auto settled = [&] {
    for (std::size_t s = 0; s < shards; ++s) {
      const auto& rs = routers[s]->stats();
      if (drivers[s]->requests_issued() < per_island ||
          rs.completed + rs.failed + rs.rejected < rs.submitted) {
        return false;
      }
    }
    return true;
  };

  const Stopwatch wall;
  for (std::size_t s = 0; s < shards; ++s) {
    collectors[s]->begin(engine.sim(s).now());
    drivers[s]->start();
  }
  while (!settled() &&
         sim::to_seconds(engine.now()) < opt.cap_seconds) {
    engine.run_for(sim::duration::milliseconds(500));
  }
  for (std::size_t s = 0; s < shards; ++s) {
    drivers[s]->stop();
    collectors[s]->end(engine.sim(s).now());
  }
  const double wall_seconds = wall.seconds();

  // End-of-run merge: one Collector view of all islands (ISSUE 7 made
  // merge shard-ready; totals match an unsharded recording).
  metrics::Collector merged;
  routing::Router::Stats totals;
  for (std::size_t s = 0; s < shards; ++s) {
    merged.merge(*collectors[s]);
    const auto& rs = routers[s]->stats();
    totals.submitted += rs.submitted;
    totals.admitted += rs.admitted;
    totals.blocked += rs.blocked;
    totals.completed += rs.completed;
    totals.failed += rs.failed;
    totals.pairs_delivered += rs.pairs_delivered;
  }
  Row row = make_row("island-shard", "flow",
                     dragonfly_name(opt) + "/" + std::to_string(shards) + "i",
                     graph, totals, merged, sim::to_seconds(engine.now()),
                     engine.events_processed(), wall_seconds);
  row.json("obs", "{}");
  h.add(std::move(row));

  const auto es = engine.stats();
  std::printf("  -> engine: %zu shards (threads %s), %llu rounds "
              "(%llu parallel, %llu idle jumps), %llu cross-shard events "
              "posted / %llu drained, %llu heartbeats\n",
              shards, engine.threads_enabled() ? "on" : "off",
              static_cast<unsigned long long>(es.rounds),
              static_cast<unsigned long long>(es.parallel_rounds),
              static_cast<unsigned long long>(es.idle_jumps),
              static_cast<unsigned long long>(es.posted),
              static_cast<unsigned long long>(es.drained),
              static_cast<unsigned long long>(
                  heartbeats.load(std::memory_order_relaxed)));
  return wall_seconds;
}

/// Oracle traffic: one Poisson train, endpoints pinned end-to-end on
/// the chain (OriginMode::kAllA), identical for both planes.
workload::TrafficConfig oracle_traffic(double rate_hz) {
  workload::TrafficConfig traffic;
  traffic.origin = workload::OriginMode::kAllA;
  traffic.min_fidelity = 0.4;
  traffic.link_min_fidelity = kFloorMenu[0];
  traffic.arrivals = std::make_shared<workload::PoissonProcess>(rate_hz);
  return traffic;
}

workload::DriverConfig oracle_tuning(const Options& opt) {
  workload::DriverConfig tuning;
  tuning.seed = opt.seed;
  tuning.poll_interval = sim::duration::milliseconds(1);
  tuning.max_requests = opt.oracle_requests;
  return tuning;
}

const Row& run_oracle_full(Harness& h, const Options& opt, double rate_hz) {
  routing::Graph graph = routing::Graph::chain(3);
  netlayer::NetworkConfig nc = routing::make_network_config(
      graph, make_link_config(opt.seed), opt.seed);
  auto net = std::make_unique<netlayer::QuantumNetwork>(nc);
  metrics::Collector collector;
  auto swap = std::make_unique<netlayer::SwapService>(*net, &collector);
  routing::RouterConfig rc;
  rc.k_candidates = 1;
  routing::Router router(graph, *swap, rc, &collector);
  router.annotate_from_network(kFloorMenu);

  auto driver = workload::WorkloadDriver::for_routed(
      router, oracle_traffic(rate_hz), oracle_tuning(opt), collector);

  const Stopwatch wall;
  collector.begin(net->simulator().now());
  net->start();
  driver->start();
  run_to_completion(*driver, router, net->simulator(),
                    [&net](sim::SimTime span) { net->run_for(span); },
                    opt.oracle_requests, opt.oracle_cap_seconds);
  driver->stop();
  collector.end(net->simulator().now());
  return h.add(router_row("oracle-full", "full", "chain3", graph, router,
                          collector, net->simulator(), wall.seconds()));
}

const Row& run_oracle_flow(Harness& h, const Options& opt, double rate_hz) {
  routing::Graph graph = routing::Graph::chain(3);
  metrics::Collector collector;
  netlayer::FlowPlane plane(
      flow_config(graph, calibrate(opt.seed), &collector, opt.seed));
  routing::RouterConfig rc;
  rc.k_candidates = 1;
  routing::Router router(graph, plane, rc, &collector);
  router.annotate_from_network(kFloorMenu);

  auto driver = workload::WorkloadDriver::for_routed(
      router, oracle_traffic(rate_hz), oracle_tuning(opt), collector);

  const Stopwatch wall;
  collector.begin(plane.simulator().now());
  driver->start();
  run_to_completion(*driver, router, plane.simulator(),
                    [&plane](sim::SimTime span) { plane.run_for(span); },
                    opt.oracle_requests, opt.oracle_cap_seconds);
  driver->stop();
  collector.end(plane.simulator().now());
  return h.add(router_row("oracle-flow", "flow", "chain3", graph, router,
                          collector, plane.simulator(), wall.seconds()));
}

double relative_error(double cur, double ref) {
  return std::abs(cur - ref) / std::max(std::abs(ref), 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Harness h("workload_scale");
  h.parse(argc, argv,
          "[--requests N] [--groups G] [--routers R] [--oracle-requests N] "
          "[--utilization U] [--cap-seconds S] [--tol T] [--shards S] "
          "[--sharded-requests N]",
          [&opt](const std::string& arg, auto next) {
            if (arg == "--requests") {
              opt.requests = next.u64();
            } else if (arg == "--groups") {
              opt.groups = next.u64();
            } else if (arg == "--routers") {
              opt.routers = next.u64();
            } else if (arg == "--oracle-requests") {
              opt.oracle_requests = next.u64();
            } else if (arg == "--oracle-utilization") {
              opt.oracle_utilization = next.real();
            } else if (arg == "--utilization") {
              opt.utilization = next.real();
            } else if (arg == "--cap-seconds") {
              opt.cap_seconds = next.real();
            } else if (arg == "--tol") {
              opt.tol = next.real();
            } else if (arg == "--shards") {
              opt.shards = next.u64();
            } else if (arg == "--sharded-requests") {
              opt.sharded_requests = next.u64();
            } else {
              return false;
            }
            return true;
          });
  opt.seed = h.args.seed;
  if (opt.requests < 1 || opt.oracle_requests < 1 ||
      opt.groups * opt.routers < 2 || opt.utilization <= 0.0 ||
      opt.utilization > 1.0 || opt.cap_seconds <= 0.0 || opt.tol <= 0.0) {
    std::fprintf(stderr,
                 "need requests >= 1, a topology with >= 2 routers, "
                 "utilization in (0, 1], positive cap/tol\n");
    h.usage();
  }
  if (opt.shards == 1 || opt.shards > opt.groups ||
      (opt.shards >= 2 && opt.sharded_requests < opt.shards)) {
    std::fprintf(stderr,
                 "need --shards in {0, 2..groups} (islands carve whole "
                 "dragonfly groups) and sharded-requests >= shards\n");
    h.usage();
  }

  print_header(
      "Workload engine at scale: flow-level fast path vs the "
      "full-detail oracle");
  h.columns({{"scenario", "scenario", -12},
             {"plane", "pln", -4},
             {"topology", "topology", -20},
             {"nodes", "nodes", 6},
             {"links", "links", 6},
             {"submitted", "subm", 8},
             {"completed", "done", 8},
             {"blocked", "blckd", 7},
             {"delivered", "pairs", 8},
             {"mean_fidelity", "fidelity", 9},
             {"mean_latency_ms", "lat(ms)", 9},
             {"sim_seconds", "sim(s)", 9},
             {"wall_seconds", "wall(s)", 9},
             {"requests_per_sec", "req/s", 11}});

  // The oracle rate: 30% of one link's calibrated service rate — well
  // inside steady state, where the flow model is valid.
  const netlayer::FlowCalibration cal = calibrate(opt.seed);
  const netlayer::FlowCalibration::Entry* point = cal.best();
  if (point == nullptr) {
    std::fprintf(stderr, "flow calibration: no feasible operating point\n");
    return 1;
  }
  const double oracle_rate_hz =
      opt.oracle_utilization / std::max(point->pair_time_s, 1e-9);

  run_scale(h, opt);
  const Row full = run_oracle_full(h, opt, oracle_rate_hz);
  const Row flow = run_oracle_flow(h, opt, oracle_rate_hz);

  double sharded_speedup = 0.0;
  if (opt.shards >= 2) {
    routing::Graph graph =
        routing::Graph::dragonfly(opt.groups, opt.routers);
    const double svc_s = std::max(point->pair_time_s, 1e-9);
    const double island_rate_hz = opt.utilization * 70.0 / svc_s;
    const std::uint64_t per_island = opt.sharded_requests / opt.shards;
    const std::uint64_t target = per_island * opt.shards;
    const double mono =
        run_island_mono(h, opt, graph, cal, island_rate_hz, target);
    const double shard =
        run_island_shard(h, opt, graph, cal, island_rate_hz, per_island);
    sharded_speedup = shard > 0.0 ? mono / shard : 0.0;
    std::printf("  -> sharded: mono %.2f s vs %zu-island %.2f s wall "
                "-> sharded_speedup %.2fx\n",
                mono, opt.shards, shard, sharded_speedup);
  }

  const auto error = [&full, &flow](const char* key) {
    return relative_error(flow.get(key), full.get(key));
  };
  const double tail_error =
      std::max({error("p50_request_latency_s"),
                error("p99_request_latency_s"), error("mean_fidelity")});
  const Row& scale = h.rows().front();
  const double requests_per_sec = scale.get("requests_per_sec");
  std::printf("  -> fast path vs oracle: p50 %.4f/%.4f s, p99 %.4f/%.4f "
              "s, fidelity %.4f/%.4f -> tail error %.3f (tol %.2f)\n",
              flow.get("p50_request_latency_s"),
              full.get("p50_request_latency_s"),
              flow.get("p99_request_latency_s"),
              full.get("p99_request_latency_s"), flow.get("mean_fidelity"),
              full.get("mean_fidelity"), tail_error, opt.tol);
  std::printf("  -> scale: %.0f requests completed at %.0f req/s wall "
              "(%.1f s)\n",
              scale.get("completed"), requests_per_sec,
              scale.get("wall_seconds"));

  Row summary;
  summary.num("requests_per_sec", requests_per_sec, 1)
      .num("fastpath_tail_error", tail_error, 6)
      .num("fastpath_tolerance", opt.tol, 6);
  if (sharded_speedup > 0.0) {
    summary.num("sharded_speedup", sharded_speedup, 4);
  }
  summary.count("stalled_intervals", h.stalled_intervals());
  h.write(summary);

  if (tail_error > opt.tol) {
    std::fprintf(stderr,
                 "FAIL: fastpath_tail_error %.3f exceeds tolerance %.2f\n",
                 tail_error, opt.tol);
    return 1;
  }
  return 0;
}
