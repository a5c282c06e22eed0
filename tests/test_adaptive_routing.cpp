#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "routing/router.hpp"

/// Adaptive re-routing: a routed request whose reserved path keeps
/// failing is resubmitted over sibling candidates with the failing edge
/// excluded; and the Router's selector searches on the parameters
/// annotate_from_network writes. Pure reservation-table lease mechanics
/// live in test_routing.cpp.

namespace qlink::netlayer {
namespace {

/// A 2x3 grid whose shortest 0 -> 2 corridor (0-1-2) has a dead middle
/// edge: herald visibility 0.25 makes a CREATE at the 0.7 floor
/// infeasible on edge (1, 2), so routes crossing it fail with UNSUPP.
struct DeadEdgeWorld {
  routing::Graph grid;
  std::unique_ptr<QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<SwapService> swap;
  std::unique_ptr<routing::Router> router;

  explicit DeadEdgeWorld(qstate::BackendKind backend,
                         std::uint64_t seed = 11,
                         std::size_t max_reroutes = 3)
      : grid(routing::Graph::grid(2, 3)) {
    const std::size_t dead = grid.find_edge(1, 2);
    NetworkConfig nc =
        routing::make_network_config(grid, core::LinkConfig{}, seed);
    nc.link.backend = backend;
    nc.link.pauli_twirl_installs =
        backend == qstate::BackendKind::kBellDiagonal;
    nc.link.scenario = hw::ScenarioParams::lab();
    nc.link.scenario.nv.carbon_t2_ns = 0.5e9;
    nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
    nc.configure_link = [dead](std::size_t link, core::LinkConfig& lc) {
      if (link == dead) lc.scenario.herald.visibility = 0.25;
    };
    net = std::make_unique<QuantumNetwork>(nc);
    swap = std::make_unique<SwapService>(*net, &collector);
    routing::RouterConfig rc;
    rc.cost = routing::CostModel::kHopCount;
    rc.k_candidates = 4;
    rc.max_reroutes = max_reroutes;
    router = std::make_unique<routing::Router>(grid, *swap, rc, &collector);
    const double menu[] = {0.7};
    router->annotate_from_network(menu);
  }
};

/// Run one 0 -> 2 request to settlement and return a byte-exact trace
/// of everything observable about its deliveries.
std::string run_dead_edge_trace(qstate::BackendKind backend,
                                std::uint64_t seed) {
  DeadEdgeWorld w(backend, seed);
  std::string trace;
  w.router->set_deliver_handler([&](const E2eOk& ok) {
    char line[160];
    std::snprintf(line, sizeof(line), "%u %u/%u q%llu-q%llu s%d %.17g %lld\n",
                  ok.request_id, ok.pair_index + 1, ok.total_pairs,
                  static_cast<unsigned long long>(ok.qubit_src),
                  static_cast<unsigned long long>(ok.qubit_dst), ok.swaps,
                  ok.fidelity, static_cast<long long>(ok.deliver_time));
    trace += line;
    w.swap->release(ok);
  });

  E2eRequest req;
  req.src = 0;
  req.dst = 2;
  req.num_pairs = 2;
  req.min_fidelity = 0.25;
  req.link_min_fidelity = 0.7;
  w.net->start();
  w.router->submit(req);
  const auto& stats = w.router->stats();
  for (int i = 0; i < 4000 && stats.completed + stats.failed < 1; ++i) {
    w.net->run_for(sim::duration::milliseconds(1));
  }

  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.rerouted, 1u);
  EXPECT_EQ(stats.abandoned, 0u);
  EXPECT_EQ(stats.pairs_delivered, 2u);
  EXPECT_EQ(w.swap->stats().resubmissions, 1u);
  EXPECT_EQ(w.collector.reroutes(), 1u);
  EXPECT_EQ(w.collector.abandons(), 0u);
  // Two admissions: the 2-hop corridor (which died), then a 4-hop
  // sibling that respects the exclusion set (a 4-hop route is only
  // possible avoiding edge (1, 2) — completing at all proves it).
  EXPECT_EQ(w.collector.route_length().count(), 2u);
  EXPECT_DOUBLE_EQ(w.collector.route_length().mean(), 3.0);
  EXPECT_EQ(w.router->reservations().active(), 0u);

  char tail[64];
  std::snprintf(tail, sizeof(tail), "end %lld\n",
                static_cast<long long>(w.net->simulator().now()));
  trace += tail;
  return trace;
}

TEST(AdaptiveRouting, ReroutesAroundDeadEdgeAndCompletes) {
  const std::string trace =
      run_dead_edge_trace(qstate::BackendKind::kBellDiagonal, 11);
  EXPECT_FALSE(trace.empty());
}

TEST(AdaptiveRouting, ByteIdenticalPerSeedOnBothBackends) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    const std::string first = run_dead_edge_trace(backend, 11);
    const std::string second = run_dead_edge_trace(backend, 11);
    EXPECT_EQ(first, second);
    EXPECT_NE(first.find('\n'), std::string::npos);
  }
}

TEST(AdaptiveRouting, StaticRouterFailsTerminallyOnDeadEdge) {
  DeadEdgeWorld w(qstate::BackendKind::kBellDiagonal, 11,
                  /*max_reroutes=*/0);
  std::vector<E2eErr> errors;
  w.router->set_error_handler(
      [&errors](const E2eErr& err) { errors.push_back(err); });

  E2eRequest req;
  req.src = 0;
  req.dst = 2;
  req.min_fidelity = 0.25;
  req.link_min_fidelity = 0.7;
  w.net->start();
  w.router->submit(req);
  const auto& stats = w.router->stats();
  for (int i = 0; i < 200 && stats.completed + stats.failed < 1; ++i) {
    w.net->run_for(sim::duration::milliseconds(1));
  }
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.rerouted, 0u);
  EXPECT_EQ(stats.abandoned, 0u);  // static mode never "gives up"
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].error, core::EgpError::kUnsupported);
  EXPECT_EQ(errors[0].link, w.grid.find_edge(1, 2));
  EXPECT_EQ(w.router->reservations().active(), 0u);
}

TEST(AdaptiveRouting, BudgetExhaustionAbandonsAndReportsTerminalError) {
  // Budget 0 reroutes would be static; budget 1 on a world where every
  // sibling also dies: kill all three column-crossing edges so no
  // 0 -> 2 route is feasible at the 0.7 floor.
  routing::Graph grid = routing::Graph::grid(2, 3);
  const std::size_t dead1 = grid.find_edge(1, 2);
  const std::size_t dead2 = grid.find_edge(4, 5);
  NetworkConfig nc =
      routing::make_network_config(grid, core::LinkConfig{}, 13);
  nc.link.backend = qstate::BackendKind::kBellDiagonal;
  nc.link.pauli_twirl_installs = true;
  nc.link.scenario = hw::ScenarioParams::lab();
  nc.configure_link = [dead1, dead2](std::size_t link,
                                     core::LinkConfig& lc) {
    if (link == dead1 || link == dead2) {
      lc.scenario.herald.visibility = 0.25;
    }
  };
  QuantumNetwork net(nc);
  metrics::Collector collector;
  SwapService swap(net, &collector);
  routing::RouterConfig rc;
  rc.max_reroutes = 5;
  routing::Router router(grid, swap, rc, &collector);
  const double menu[] = {0.7};
  router.annotate_from_network(menu);

  std::vector<E2eErr> errors;
  router.set_error_handler(
      [&errors](const E2eErr& err) { errors.push_back(err); });

  E2eRequest req;
  req.src = 0;
  req.dst = 2;
  req.min_fidelity = 0.25;
  req.link_min_fidelity = 0.7;
  net.start();
  router.submit(req);
  const auto& stats = router.stats();
  for (int i = 0; i < 400 && stats.completed + stats.failed < 1; ++i) {
    net.run_for(sim::duration::milliseconds(1));
  }
  // Every 0 -> 2 route crosses column 1 -> 2 over one of the two dead
  // crossing edges; after both join the exclusion set no candidate
  // remains and the request is abandoned.
  EXPECT_EQ(stats.completed, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.rerouted, 1u);
  EXPECT_EQ(stats.abandoned, 1u);
  EXPECT_EQ(collector.abandons(), 1u);
  ASSERT_EQ(errors.size(), 1u);  // the higher layer saw only the end
  EXPECT_EQ(router.reservations().active(), 0u);
  EXPECT_EQ(swap.open_requests(), 0u);
}

// ---------------------------------------------------------------------------
// Annotation from the network's planning estimates.

TEST(AnnotationRefresh, SelectorSearchesOnRewrittenParams) {
  // Ring 0-1-2-3, endpoints 0 and 2: two 2-hop routes. At the graph's
  // default params they tie and the tie-break takes 0-1-2, whose edge
  // (1, 2) cannot run at the 0.7 floor (visibility 0.25).
  routing::Graph ring = routing::Graph::ring(4);
  const std::size_t dead = ring.find_edge(1, 2);
  NetworkConfig nc =
      routing::make_network_config(ring, core::LinkConfig{}, 5);
  nc.link.scenario = hw::ScenarioParams::lab();
  nc.configure_link = [dead](std::size_t link, core::LinkConfig& lc) {
    if (link == dead) lc.scenario.herald.visibility = 0.25;
  };
  QuantumNetwork net(nc);
  SwapService swap(net);
  routing::RouterConfig rc;
  rc.cost = routing::CostModel::kFidelity;
  routing::Router router(ring, swap, rc);
  // The Router's selector must route as a fresh one over the same
  // params does.
  const auto route = [&router] {
    const auto paths = router.selector().k_shortest(0, 2, 1);
    const auto fresh = routing::PathSelector(router.graph(),
                                             routing::CostModel::kFidelity)
                           .k_shortest(0, 2, 1);
    EXPECT_TRUE(paths.size() == 1 && fresh.size() == 1 &&
                paths[0].nodes == fresh[0].nodes);
    return paths.empty() ? std::vector<std::uint32_t>{} : paths[0].nodes;
  };
  EXPECT_EQ(route(), (std::vector<std::uint32_t>{0, 1, 2}));

  // Annotation marks the dead edge separable: the route turns to 0-3-2.
  const double menu[] = {0.7};
  router.annotate_from_network(menu);
  ASSERT_DOUBLE_EQ(router.graph().params(dead).fidelity, 0.25);
  EXPECT_EQ(route(), (std::vector<std::uint32_t>{0, 3, 2}));
}

}  // namespace
}  // namespace qlink::netlayer
