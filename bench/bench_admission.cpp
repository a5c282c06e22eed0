// Scheduler-grade admission bench (ISSUE 5): the PR-4 queue-blind
// policy vs deferred-window + batch admission, on grid and dragonfly
// contention scenarios.
//
// Each scenario picks node-disjoint multi-hop corridors on the
// topology. On every corridor, two "head" requests lease its first
// edge (a) and its remaining edges (b) with staggered windows
// (head_b asks for more pairs, so its lease ends later), and a
// "waiter" wants the whole corridor — it can only start once *both*
// windows have opened. On the first corridor a long "newcomer"
// arrives between the two lease ends, wanting edge a only.
//
//  pr4    scheduled_admission = false: the waiter parks
//         blind in the blocked queue. When edge a's lease lapses the
//         waiter still cannot start (b is busy), so a sits free until
//         the newcomer snatches it for a long window — a queue jump
//         ("steal") that pushes the waiter's admission past the
//         newcomer's whole lease, while edge b sits idle: the
//         coordination loss of blind queueing.
//  sched  scheduled_admission = true: the waiter books
//         the earliest window in which a AND b are both free
//         (ReservationTable::earliest_window) the moment it fails to
//         admit. The newcomer's instant window would overlap that
//         booking, so it defers behind it instead of jumping the
//         queue. The waiter starts exactly when b frees; nobody
//         queues blind (steals = 0).
//
// Corridors beyond the first see no newcomer: they behave identically
// under both policies (their waiters admit at the same wakeup, batch
// style), pinning down that the gains come from the contended
// corridor alone. The JSON carries per-row admission-wait stats plus
// the summary scalars `mean_admission_wait_gain` (pr4 mean admission
// wait minus sched's, averaged over scenarios, sim-seconds) and
// `hol_blocking_reduction` (relative reduction in queue jumps);
// CI's bench_diff gate requires both strictly positive.
//
// Every run is observed by an obs::Session (NetState + Monitor, run
// label "scenario/mode", e.g. "grid/pr4"); the shared flags and output
// files follow bench/common.hpp's Harness contract.
//
// Usage: bench_admission [--scenario grid|dragonfly|all]
//          [--lease-slack S] [--cap-seconds S] [--backend dense|bell]
//          [--seed K] [--json PATH|-] [--monitor PATH]
//          [--netstate PATH] [--report PATH]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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
  // < 1 so leases lapse before holders finish: admission is governed
  // by the lease calendar, the regime deferred booking schedules.
  double lease_slack = 0.5;
  double cap_seconds = 120.0;
  std::uint16_t head_a_pairs = 4;
  std::uint16_t head_b_pairs = 8;
  std::uint16_t waiter_pairs = 2;
  std::uint16_t newcomer_pairs = 16;
  qstate::BackendKind backend = qstate::BackendKind::kBellDiagonal;
  std::uint64_t seed = 7;
};

/// Up to `want` mutually node-disjoint shortest corridors of >= 2 hops,
/// scanned in deterministic node order.
std::vector<routing::Path> pick_corridors(const routing::PathSelector& sel,
                                          const routing::Graph& graph,
                                          std::size_t want) {
  std::vector<routing::Path> out;
  std::vector<char> used(graph.num_nodes(), 0);
  for (std::uint32_t u = 0; u < graph.num_nodes() && out.size() < want;
       ++u) {
    for (std::uint32_t v = u + 1;
         v < graph.num_nodes() && out.size() < want; ++v) {
      const auto path = sel.shortest(u, v);
      if (!path || path->hops() < 2) continue;
      bool clean = true;
      for (const std::uint32_t n : path->nodes) {
        if (used[n]) {
          clean = false;
          break;
        }
      }
      if (!clean) continue;
      for (const std::uint32_t n : path->nodes) used[n] = 1;
      out.push_back(*path);
    }
  }
  return out;
}

/// The sub-walk of `path` spanning node positions [from, to].
routing::Path subpath(const routing::Path& path, std::size_t from,
                      std::size_t to) {
  routing::Path out;
  out.nodes.assign(path.nodes.begin() + static_cast<std::ptrdiff_t>(from),
                   path.nodes.begin() + static_cast<std::ptrdiff_t>(to) + 1);
  out.edges.assign(path.edges.begin() + static_cast<std::ptrdiff_t>(from),
                   path.edges.begin() + static_cast<std::ptrdiff_t>(to));
  return out;
}

/// One scenario under one admission policy; its row joins `h`.
Row run_mode(Harness& h, const Options& opt, const char* scenario,
             const char* mode, bool scheduler) {
  const bool grid = scenario == std::string("grid");
  const routing::Graph graph = grid ? routing::Graph::grid(3, 3)
                                    : routing::Graph::dragonfly(3, 3);
  const std::size_t want_corridors = grid ? 3 : 2;

  netlayer::NetworkConfig nc = routing::make_network_config(
      graph, core::LinkConfig{}, opt.seed);
  nc.link.backend = opt.backend;
  nc.link.pauli_twirl_installs =
      opt.backend == qstate::BackendKind::kBellDiagonal;
  nc.link.scenario = hw::ScenarioParams::lab();
  // Decoherence-protected carbon memory ([82]): waiters hold their
  // first pairs across the slower hop's window.
  nc.link.scenario.nv.carbon_t2_ns = 5e9;
  nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  const auto net = std::make_unique<netlayer::QuantumNetwork>(nc);
  metrics::Collector collector;
  const auto swap =
      std::make_unique<netlayer::SwapService>(*net, &collector);

  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kHopCount;
  rc.k_candidates = 1;  // corridors are pinned; keep admission exact
  rc.lease_slack = opt.lease_slack;
  rc.scheduled_admission = scheduler;
  routing::Router router(graph, *swap, rc, &collector);
  const double menu[] = {0.7};
  router.annotate_from_network(menu);

  router.set_deliver_handler(
      [&swap](const netlayer::E2eOk& ok) { swap->release(ok); });

  const std::vector<routing::Path> corridors =
      pick_corridors(router.selector(), router.graph(), want_corridors);
  if (corridors.empty()) {
    std::fprintf(stderr, "no corridor on %s\n", scenario);
    std::exit(1);
  }

  const auto request = [](std::uint32_t src, std::uint32_t dst,
                          std::uint16_t pairs) {
    netlayer::E2eRequest req;
    req.src = src;
    req.dst = dst;
    req.num_pairs = pairs;
    req.min_fidelity = 0.25;
    req.link_min_fidelity = 0.7;
    return req;
  };

  const std::string run = std::string(scenario) + "/" + mode;
  obs::Session session(collector, {.run = run}, h.traced());
  session.attach(router);

  net->start();
  std::uint64_t expected = 0;
  for (std::size_t c = 0; c < corridors.size(); ++c) {
    const routing::Path& corridor = corridors[c];
    const routing::Path head_a = subpath(corridor, 0, 1);
    const routing::Path head_b =
        subpath(corridor, 1, corridor.nodes.size() - 1);

    const auto req_a =
        request(head_a.src(), head_a.dst(), opt.head_a_pairs);
    const auto req_b =
        request(head_b.src(), head_b.dst(), opt.head_b_pairs);
    router.submit_on(req_a, head_a);
    router.submit_on(req_b, head_b);
    router.submit_on(request(corridor.src(), corridor.dst(),
                             opt.waiter_pairs),
                     corridor);
    expected += 3;

    if (c == 0) {
      // The contended corridor: a long newcomer for edge a lands
      // between the two head leases' ends — exactly when a is free
      // but the waiter still cannot start.
      const sim::SimTime t1 = router.lease_duration(head_a, req_a);
      const sim::SimTime t2 = router.lease_duration(head_b, req_b);
      const sim::SimTime tn = t1 + (t2 - t1) / 2;
      net->simulator().schedule_at(
          tn, [&router, &request, head_a, pairs = opt.newcomer_pairs] {
            router.submit_on(
                request(head_a.src(), head_a.dst(), pairs), head_a);
          });
      expected += 1;
    }
  }
  // The Monitor counts from here: the instant admissions above are in
  // its baseline, the run's progress in its records.
  session.watch({.run = run, .target_requests = expected});

  const Stopwatch wall;
  const auto& stats = router.stats();
  while (stats.completed + stats.failed < expected &&
         sim::to_seconds(net->simulator().now()) < opt.cap_seconds) {
    net->run_for(sim::duration::milliseconds(10));
    session.poll();
  }
  session.finish();

  const double wall_seconds = wall.seconds();
  const std::uint64_t events = net->simulator().events_processed();
  const auto& res = router.reservations();
  Row row;
  row.text("scenario", scenario)
      .text("mode", mode)
      .text("backend", net->registry().backend().name())
      .count("nodes", net->num_nodes())
      .count("links", net->num_links())
      .count("corridors", corridors.size())
      .count("submitted", stats.submitted)
      .count("admitted", stats.admitted)
      .count("blocked", stats.blocked)
      .count("deferred", stats.deferred)
      .count("completed", stats.completed)
      .count("failed", stats.failed)
      .count("delivered", stats.pairs_delivered)
      .count("steals", res.steals())
      .count("hol_holds", res.hol_holds())
      .count("batch_admits", res.batch_admits())
      .count("lease_expiries", res.lease_expiries())
      .num("deferred_wait_total_s",
           sim::to_seconds(stats.deferred_wait_total), 6)
      .num("mean_admission_wait_s", collector.admission_wait().mean(), 6)
      .num("max_admission_wait_s", collector.admission_wait().max(), 6)
      .num("p50_admission_wait_s", collector.admission_wait_hist().p50(), 6)
      .num("p99_admission_wait_s", collector.admission_wait_hist().p99(), 6)
      .num("p99_request_latency_s", collector.request_latency_hist().p99(),
           6)
      .num("completion_rate",
           static_cast<double>(stats.completed) /
               static_cast<double>(expected),
           6)
      .num("max_utilization", session.max_utilization(), 6)
      .num("sim_seconds", sim::to_seconds(net->simulator().now()), 3)
      .num("wall_seconds", wall_seconds, 4)
      .count("events", events)
      .num("events_per_sec",
           per_second(static_cast<double>(events), wall_seconds), 1)
      .count("stalled_intervals", session.stalled_intervals())
      .count("peak_backlog", session.peak_backlog());
  h.add(session, run + " (" +
                     (scheduler ? "scheduler admission" : "queue-blind") +
                     ")");
  return h.add(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Harness h("admission", "Admission control run report");
  h.parse(argc, argv,
          "[--scenario grid|dragonfly|all] [--lease-slack S] "
          "[--cap-seconds S] [--backend dense|bell]",
          [&opt](const std::string& arg, auto next) {
            if (arg == "--scenario") {
              opt.scenario = next();
              return opt.scenario == "grid" || opt.scenario == "dragonfly" ||
                     opt.scenario == "all";
            }
            if (arg == "--lease-slack") {
              opt.lease_slack = next.real();
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
  if (opt.lease_slack <= 0.0 || opt.cap_seconds <= 0.0) {
    std::fprintf(stderr,
                 "need positive lease-slack (finite windows) and "
                 "cap-seconds\n");
    h.usage();
  }

  print_header(
      "Admission control: deferred window booking + batch drain vs the "
      "queue-blind policy");
  h.columns({{"scenario", "scenario", -10},
             {"mode", "mode", -6},
             {"submitted", "subm", 5},
             {"completed", "done", 5},
             {"blocked", "blckd", 5},
             {"deferred", "defer", 5},
             {"steals", "steal", 5},
             {"hol_holds", "holds", 6},
             {"batch_admits", "batch", 6},
             {"mean_admission_wait_s", "meanwait", 9},
             {"max_admission_wait_s", "maxwait", 9},
             {"sim_seconds", "sim(s)", 8},
             {"wall_seconds", "wall(s)", 8}});

  std::vector<const char*> scenarios;
  if (opt.scenario == "all" || opt.scenario == "grid") {
    scenarios.push_back("grid");
  }
  if (opt.scenario == "all" || opt.scenario == "dragonfly") {
    scenarios.push_back("dragonfly");
  }

  double wait_gain_sum = 0.0;
  std::uint64_t steals_pr4 = 0;
  std::uint64_t steals_sched = 0;
  for (const char* scenario : scenarios) {
    const Row pr4 = run_mode(h, opt, scenario, "pr4", false);
    const Row sched = run_mode(h, opt, scenario, "sched", true);
    wait_gain_sum += pr4.get("mean_admission_wait_s") -
                     sched.get("mean_admission_wait_s");
    steals_pr4 += static_cast<std::uint64_t>(pr4.get("steals"));
    steals_sched += static_cast<std::uint64_t>(sched.get("steals"));
  }
  const double wait_gain =
      wait_gain_sum / static_cast<double>(scenarios.size());
  const double hol_reduction =
      static_cast<double>(steals_pr4 - std::min(steals_sched, steals_pr4)) /
      static_cast<double>(std::max<std::uint64_t>(steals_pr4, 1));

  std::printf("\n  -> scheduler admission: mean admission wait gain "
              "%+.4f s, head-of-line queue jumps %llu -> %llu "
              "(reduction %.2f)\n",
              wait_gain, static_cast<unsigned long long>(steals_pr4),
              static_cast<unsigned long long>(steals_sched),
              hol_reduction);

  Row summary;
  summary.count("stalled_intervals", h.stalled_intervals())
      .count("peak_backlog", h.peak_backlog())
      .num("hot_edge_max_utilization", h.max_utilization(), 6)
      .num("mean_admission_wait_gain", wait_gain, 6)
      .num("hol_blocking_reduction", hol_reduction, 6);
  h.write(summary);

  // The bench's own acceptance bar (also enforced by CI's bench_diff
  // gate): the scheduler must strictly beat the queue-blind policy on
  // mean admission wait and eliminate at least some queue jumps.
  return wait_gain > 0.0 && hol_reduction > 0.0 ? 0 : 1;
}
