// Adaptive re-routing bench (ISSUE 4): static vs adaptive routing on a
// degraded-edge grid, with time-sliced reservation leases.
//
// The topology is an R x C grid whose row corridors are the hop-count
// shortest routes between each row's west and east ends. Every row but
// the last has its middle corridor edge degraded to badly
// distinguishable photons (herald visibility 0.25): a CREATE at the
// 0.7 fidelity floor is infeasible there, so any route crossing it
// fails with UNSUPP. One request per row (west -> east) is submitted
// under the hop-count cost model — which happily walks into the
// degraded corridors.
//
//  static    max_reroutes = 0 (the PR-3 router): every request whose
//            corridor is degraded fails; only the clean last row
//            completes.
//  adaptive  max_reroutes > 0: each failure adds the failing edge to
//            the request's exclusion set and resubmits over a sibling
//            candidate. Requests discover the degraded middle column
//            edge by edge and converge on the clean last row, sharing
//            its edges under time-sliced leases (blocked requests
//            retry on lease expiry, not only on release).
//
// The JSON records both modes plus adaptive_completion_gain /
// adaptive_fidelity_sum_gain; CI's bench_diff gate requires the
// completion gain to stay strictly positive.
//
// Usage: bench_adaptive_routing [--rows R] [--cols C] [--pairs P]
//          [--reroutes N] [--lease-slack S] [--cap-seconds S]
//          [--backend dense|bell] [--seed K] [--json PATH|-]

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
  std::size_t rows = 4;
  std::size_t cols = 4;
  std::uint16_t pairs = 1;
  std::size_t reroutes = 4;
  double lease_slack = 2.0;
  double cap_seconds = 120.0;
  qstate::BackendKind backend = qstate::BackendKind::kBellDiagonal;
  std::uint64_t seed = 7;
};

/// One full scenario run at the given reroute budget; its row joins `h`.
Row run_mode(Harness& h, const Options& opt, const char* mode,
             std::size_t reroutes) {
  routing::Graph grid = routing::Graph::grid(opt.rows, opt.cols);
  // The middle corridor edge of every row but the last: between columns
  // mid and mid + 1.
  const std::size_t mid = (opt.cols - 1) / 2;
  std::vector<std::size_t> degraded;
  for (std::size_t r = 0; r + 1 < opt.rows; ++r) {
    const auto a = static_cast<std::uint32_t>(r * opt.cols + mid);
    const auto b = static_cast<std::uint32_t>(r * opt.cols + mid + 1);
    degraded.push_back(grid.find_edge(a, b));
  }
  const auto is_degraded = [&degraded](std::size_t link) {
    for (const std::size_t d : degraded) {
      if (d == link) return true;
    }
    return false;
  };

  netlayer::NetworkConfig nc = routing::make_network_config(
      grid, core::LinkConfig{}, opt.seed);
  nc.link.backend = opt.backend;
  nc.link.pauli_twirl_installs =
      opt.backend == qstate::BackendKind::kBellDiagonal;
  nc.link.scenario = hw::ScenarioParams::lab();
  // Decoherence-protected carbon memory ([82]): re-routed corridors run
  // up to ~2 R + C hops and wait for their slowest link.
  nc.link.scenario.nv.carbon_t2_ns = 5e9;
  nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  nc.configure_link = [is_degraded](std::size_t link,
                                    core::LinkConfig& lc) {
    // Badly distinguishable photons: a 0.7 CREATE floor is infeasible.
    if (is_degraded(link)) lc.scenario.herald.visibility = 0.25;
  };
  const auto net = std::make_unique<netlayer::QuantumNetwork>(nc);
  metrics::Collector collector;
  const auto swap =
      std::make_unique<netlayer::SwapService>(*net, &collector);

  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kHopCount;
  rc.k_candidates = 4;
  rc.max_reroutes = reroutes;
  rc.lease_slack = opt.lease_slack;
  routing::Router router(grid, *swap, rc, &collector);
  const double menu[] = {0.7};
  router.annotate_from_network(menu);

  router.set_deliver_handler(
      [&swap](const netlayer::E2eOk& ok) { swap->release(ok); });

  net->start();
  for (std::size_t r = 0; r < opt.rows; ++r) {
    netlayer::E2eRequest req;
    req.src = static_cast<std::uint32_t>(r * opt.cols);
    req.dst = static_cast<std::uint32_t>(r * opt.cols + opt.cols - 1);
    req.num_pairs = opt.pairs;
    req.min_fidelity = 0.25;
    // Every hop's CREATE carries the 0.7 floor (annotated links agree;
    // a degraded link cannot support it and errors with UNSUPP).
    req.link_min_fidelity = 0.7;
    router.submit(req);
  }

  const Stopwatch wall;
  const auto& stats = router.stats();
  while (stats.completed + stats.failed < opt.rows &&
         sim::to_seconds(net->simulator().now()) < opt.cap_seconds) {
    net->run_for(sim::duration::milliseconds(10));
  }

  const double wall_seconds = wall.seconds();
  const auto& nl = collector.kind(core::Priority::kNetworkLayer);
  const std::uint64_t events = net->simulator().events_processed();
  Row row;
  row.text("mode", mode)
      .count("reroute_budget", reroutes)
      .text("backend", net->registry().backend().name())
      .count("nodes", net->num_nodes())
      .count("links", net->num_links())
      .count("submitted", stats.submitted)
      .count("admitted", stats.admitted)
      .count("blocked", stats.blocked)
      .count("completed", stats.completed)
      .count("failed", stats.failed)
      .count("rerouted", stats.rerouted)
      .count("abandoned", stats.abandoned)
      .count("delivered", stats.pairs_delivered)
      .count("lease_expiries", router.reservations().lease_expiries())
      .num("completion_rate",
           static_cast<double>(stats.completed) /
               static_cast<double>(opt.rows),
           6)
      .num("mean_fidelity", nl.fidelity.mean(), 6)
      .num("fidelity_sum",
           nl.fidelity.mean() * static_cast<double>(nl.fidelity.count()), 6)
      .num("mean_route_hops", collector.route_length().mean(), 3)
      .num("sim_seconds", sim::to_seconds(net->simulator().now()), 3)
      .num("wall_seconds", wall_seconds, 4)
      .count("events", events)
      .num("events_per_sec",
           per_second(static_cast<double>(events), wall_seconds), 1);
  return h.add(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  Harness h("adaptive_routing");
  h.parse(argc, argv,
          "[--rows R] [--cols C] [--pairs P] [--reroutes N] "
          "[--lease-slack S] [--cap-seconds S] [--backend dense|bell]",
          [&opt](const std::string& arg, auto next) {
            if (arg == "--rows") {
              opt.rows = next.u64();
            } else if (arg == "--cols") {
              opt.cols = next.u64();
            } else if (arg == "--pairs") {
              opt.pairs = static_cast<std::uint16_t>(next.u64());
            } else if (arg == "--reroutes") {
              opt.reroutes = next.u64();
            } else if (arg == "--lease-slack") {
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
  if (opt.rows < 2 || opt.cols < 3 || opt.pairs < 1 ||
      opt.reroutes < 1 || opt.cap_seconds <= 0.0) {
    std::fprintf(stderr,
                 "need rows >= 2 (one clean row), cols >= 3 (a middle "
                 "edge to degrade), pairs/reroutes >= 1, positive "
                 "cap-seconds\n");
    h.usage();
  }

  print_header(
      "Adaptive re-routing: exclusion-set retries + time-sliced leases "
      "on a degraded-edge grid");
  std::printf("%zux%zu grid, %zu requests (one per row), %u pair(s) "
              "each, degraded middle column in all but the last row\n\n",
              opt.rows, opt.cols, opt.rows, opt.pairs);
  h.columns({{"mode", "mode", -8},
             {"reroute_budget", "budget", 6},
             {"submitted", "subm", 4},
             {"completed", "done", 4},
             {"failed", "fail", 5},
             {"rerouted", "rert", 5},
             {"abandoned", "aban", 5},
             {"blocked", "blckd", 6},
             {"delivered", "pairs", 5},
             {"lease_expiries", "expry", 6},
             {"mean_fidelity", "fidelity", 9},
             {"sim_seconds", "sim(s)", 8},
             {"wall_seconds", "wall(s)", 8},
             {"events_per_sec", "events/s", 11}});

  const Row st = run_mode(h, opt, "static", 0);
  const Row ad = run_mode(h, opt, "adaptive", opt.reroutes);
  const double completion_gain =
      ad.get("completion_rate") - st.get("completion_rate");
  const double fidelity_sum_gain =
      ad.get("fidelity_sum") - st.get("fidelity_sum");

  std::printf("\n  -> adaptive re-routing: completion rate %.3f vs "
              "%.3f static (gain %+.3f), delivered fidelity sum %.3f "
              "vs %.3f (gain %+.3f)\n",
              ad.get("completion_rate"), st.get("completion_rate"),
              completion_gain, ad.get("fidelity_sum"),
              st.get("fidelity_sum"), fidelity_sum_gain);
  Row summary;
  summary
      .text("topology", "grid" + std::to_string(opt.rows) + "x" +
                            std::to_string(opt.cols) +
                            "-degraded-mid-column")
      .num("adaptive_completion_gain", completion_gain, 6)
      .num("adaptive_fidelity_sum_gain", fidelity_sum_gain, 6);
  h.write(summary);

  // The bench's own acceptance bar (also enforced by CI's bench_diff
  // gate on the JSON): adaptive must strictly beat static on
  // completion rate.
  return completion_gain > 0.0 ? 0 : 1;
}
