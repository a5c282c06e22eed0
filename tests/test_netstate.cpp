#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "metrics/collector.hpp"
#include "metrics/edge_stats.hpp"
#include "metrics/spacesaving.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/netstate.hpp"
#include "obs/report.hpp"
#include "obs/session.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"
#include "sim/simulator.hpp"

/// Network-state observability (ISSUE 8): the per-edge accounting
/// substrate (metrics::EdgeStats + the Space-Saving sketch), the
/// obs::NetState sampler, and the run-report renderer. Load-bearing
/// guarantees: sketch exactness under capacity and deterministic
/// merge, union lease coverage (utilization <= 1 by construction),
/// byte-identical JSONL per seed on both backends, and *zero*
/// trajectory perturbation from attaching the accounting hooks.

namespace qlink::obs {
namespace {

using metrics::EdgeStats;
using metrics::SpaceSaving;
using netlayer::E2eOk;
using netlayer::E2eRequest;
using netlayer::NetworkConfig;
using netlayer::QuantumNetwork;
using netlayer::SwapService;

std::size_t count_of(const std::string& haystack, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

TEST(NetStateConfig, RejectsANonPositiveInterval) {
  // A bad cadence fails loudly instead of being rewritten to 100 ms.
  sim::Simulator sim;
  const EdgeStats stats(3, 3);
  for (const sim::SimTime interval : {sim::SimTime{0}, sim::SimTime{-1}}) {
    NetStateConfig nsc;
    nsc.interval = interval;
    EXPECT_THROW((NetState{sim, stats, nsc}), std::invalid_argument);
  }
  EXPECT_NO_THROW((NetState{sim, stats, NetStateConfig{}}));
}

// ---------------------------------------------------------------------------
// Space-Saving sketch.

TEST(SpaceSaving, ExactWhileDistinctKeysFitCapacity) {
  SpaceSaving s(4);
  s.add(7, 3);
  s.add(2, 1);
  s.add(7, 2);
  s.add(9, 1);
  EXPECT_TRUE(s.exact());
  EXPECT_EQ(s.evictions(), 0u);
  EXPECT_EQ(s.total_weight(), 7u);
  const auto top = s.top(8);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 7u);
  EXPECT_EQ(top[0].count, 5u);
  EXPECT_EQ(top[0].error, 0u);
  EXPECT_EQ(s.count_bound(7), 5u);
  // Ties rank by key ascending: 2 and 9 both have count 1.
  EXPECT_EQ(top[1].key, 2u);
  EXPECT_EQ(top[2].key, 9u);
}

TEST(SpaceSaving, EvictionInheritsTheMinimumCountAsErrorBound) {
  SpaceSaving s(2);
  s.add(1);
  s.add(2);
  s.add(3);  // evicts the min-count tie's smallest key: 1
  EXPECT_FALSE(s.exact());
  EXPECT_EQ(s.evictions(), 1u);
  const auto top = s.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 3u);
  EXPECT_EQ(top[0].count, 2u);  // inherited 1 + its own 1
  EXPECT_EQ(top[0].error, 1u);  // true count of 3 is in [1, 2]
  EXPECT_EQ(top[1].key, 2u);
  EXPECT_EQ(top[1].error, 0u);
  // Untracked keys are bounded by the sketch minimum.
  EXPECT_EQ(s.count_bound(1), 1u);
  EXPECT_EQ(s.total_weight(), 3u);
}

TEST(SpaceSaving, MergeOfShardsUnderCapacityEqualsTheSingleRun) {
  SpaceSaving whole(8), a(8), b(8);
  for (SpaceSaving* s : {&whole, &a}) {
    s->add(1, 4);
    s->add(2, 2);
  }
  for (SpaceSaving* s : {&whole, &b}) {
    s->add(2, 3);
    s->add(5, 1);
  }
  a.merge(b);
  EXPECT_TRUE(a.exact());
  EXPECT_EQ(a.total_weight(), whole.total_weight());
  const auto merged = a.top(8);
  const auto single = whole.top(8);
  ASSERT_EQ(merged.size(), single.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].key, single[i].key);
    EXPECT_EQ(merged[i].count, single[i].count);
    EXPECT_EQ(merged[i].error, single[i].error);
  }
  // Merge is deterministic: the other order yields the same ranking.
  SpaceSaving a2(8), b2(8);
  a2.add(1, 4);
  a2.add(2, 2);
  b2.add(2, 3);
  b2.add(5, 1);
  b2.merge(a2);
  const auto other_order = b2.top(8);
  ASSERT_EQ(other_order.size(), single.size());
  for (std::size_t i = 0; i < other_order.size(); ++i) {
    EXPECT_EQ(other_order[i].key, single[i].key);
    EXPECT_EQ(other_order[i].count, single[i].count);
  }
}

TEST(SpaceSaving, MergeTruncatesBackToCapacityDeterministically) {
  SpaceSaving a(2), b(2);
  a.add(1, 5);
  a.add(2, 1);
  b.add(3, 4);
  b.add(4, 2);
  a.merge(b);
  EXPECT_EQ(a.size(), 2u);
  const auto top = a.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].key, 1u);  // count 5
  EXPECT_EQ(top[1].key, 3u);  // count 4
  EXPECT_EQ(a.total_weight(), 12u);
  EXPECT_FALSE(a.exact());  // truncation dropped tracked keys
}

// ---------------------------------------------------------------------------
// EdgeStats: union lease coverage and counter accounting.

TEST(EdgeStats, UnionCoverageClipsOverlappingWindows) {
  EdgeStats es(2, 2);
  // [1, 3) and [2, 5): union covers [1, 5) = 4 s.
  es.on_lease(0, 10, sim::duration::seconds(1), sim::duration::seconds(3));
  es.on_lease(0, 11, sim::duration::seconds(2), sim::duration::seconds(5));
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(2)), 1.0);
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(4)), 3.0);
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(10)), 4.0);
  // The untouched edge stays at zero; counters track placements.
  EXPECT_DOUBLE_EQ(es.busy_seconds(1, sim::duration::seconds(10)), 0.0);
  EXPECT_EQ(es.edge(0).leases, 2u);
  EXPECT_EQ(es.lease_count(), 2u);
  // Coverage can never exceed elapsed: utilization <= 1 by construction.
  EXPECT_LE(es.busy_seconds(0, sim::duration::seconds(10)), 10.0);
}

TEST(EdgeStats, EarlyReleaseTruncatesTheOpenWindow) {
  EdgeStats es(1, 1);
  es.on_lease(0, 42, sim::duration::seconds(1), sim::duration::seconds(9));
  es.on_lease_release(0, 42, sim::duration::seconds(4));
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(9)), 3.0);
  // Releasing an unknown ticket or with unknown time is a no-op.
  es.on_lease_release(0, 7, sim::duration::seconds(5));
  es.on_lease_release(0, 42, -1);
  EXPECT_DOUBLE_EQ(es.busy_seconds(0, sim::duration::seconds(10)), 3.0);
}

TEST(EdgeStats, ContentionAndDeliveryCounters) {
  EdgeStats es(3, 3);
  const std::size_t footprint[] = {0, 2};
  es.on_blocked(footprint);
  es.on_blocked_request();
  const std::size_t path[] = {0, 1};
  es.on_admission_wait(path, 0.5);
  es.on_attempt(1, 4);
  es.on_swap(1);
  es.on_delivered_edge(0, 0.8);
  es.on_delivered_edge(1, 0.8);
  es.on_delivered_pair(0, 2);

  EXPECT_EQ(es.edge(0).blocked, 1u);
  EXPECT_EQ(es.edge(1).blocked, 0u);
  EXPECT_EQ(es.edge(2).blocked, 1u);
  EXPECT_EQ(es.blocked_requests(), 1u);
  EXPECT_EQ(es.edge(0).admission_waits, 1u);
  EXPECT_DOUBLE_EQ(es.edge(1).admission_wait_s, 0.5);
  EXPECT_EQ(es.admission_waits(), 1u);
  EXPECT_DOUBLE_EQ(es.admission_wait_seconds(), 0.5);
  EXPECT_EQ(es.edge(1).attempts, 4u);
  EXPECT_EQ(es.attempt_pairs(), 4u);
  EXPECT_EQ(es.node(1).swaps, 1u);
  EXPECT_EQ(es.swaps(), 1u);
  EXPECT_EQ(es.edge(0).deliveries, 1u);
  EXPECT_DOUBLE_EQ(es.edge(0).fidelity.mean(), 0.8);
  EXPECT_EQ(es.deliveries(), 1u);
  EXPECT_EQ(es.node(0).terminals, 1u);
  EXPECT_EQ(es.node(2).terminals, 1u);
}

TEST(EdgeStats, MergeSumsCountersCoverageAndSketch) {
  EdgeStats a(2, 2), b(2, 2);
  a.on_lease(0, 1, 0, sim::duration::seconds(2));
  b.on_lease(0, 2, sim::duration::seconds(5), sim::duration::seconds(6));
  a.on_attempt(1, 3);
  b.on_attempt(1, 2);
  a.on_delivered_edge(0, 0.9);
  b.on_delivered_edge(0, 0.7);
  b.on_swap(1);
  // Fold both shards at their end times first (the documented merge
  // precondition), then merge.
  (void)a.busy_seconds(0, sim::duration::seconds(2));
  (void)b.busy_seconds(0, sim::duration::seconds(6));
  a.merge(b);
  EXPECT_EQ(a.edge(0).leases, 2u);
  EXPECT_EQ(a.lease_count(), 2u);
  EXPECT_EQ(a.edge(1).attempts, 5u);
  EXPECT_EQ(a.attempt_pairs(), 5u);
  EXPECT_EQ(a.edge(0).deliveries, 2u);
  EXPECT_DOUBLE_EQ(a.edge(0).fidelity.mean(), 0.8);
  EXPECT_EQ(a.node(1).swaps, 1u);
  // Folded busy seconds add: 2 s + 1 s of disjoint sim-time coverage.
  EXPECT_DOUBLE_EQ(a.busy_seconds(0, sim::duration::seconds(6)), 3.0);
  EXPECT_TRUE(a.hot_edges().exact());
  EXPECT_EQ(a.hot_edges().total_weight(), 7u);  // 2 leases + 5 pairs
}

// ---------------------------------------------------------------------------
// Sampled end-to-end run: the same 2x3 dead-edge world as
// test_monitor.cpp's MonitoredWorld, with EdgeStats hooks and an
// obs::NetState polled from the run loop.

struct SampledWorld {
  routing::Graph grid;
  std::unique_ptr<QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<SwapService> swap;
  std::unique_ptr<routing::Router> router;
  std::unique_ptr<EdgeStats> edge_stats;
  std::unique_ptr<NetState> netstate;

  explicit SampledWorld(qstate::BackendKind backend, std::uint64_t seed,
                        bool sampled)
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
    rc.max_reroutes = 3;
    router = std::make_unique<routing::Router>(grid, *swap, rc, &collector);
    const double menu[] = {0.7};
    router->annotate_from_network(menu);
    if (sampled) {
      edge_stats = std::make_unique<EdgeStats>(grid.num_edges(),
                                               grid.num_nodes());
      router->set_edge_stats(edge_stats.get());
      NetStateConfig nsc;
      nsc.run = "test";
      netstate = std::make_unique<NetState>(net->simulator(), *edge_stats,
                                            std::move(nsc));
      netstate->attach_collector(&collector);
      netstate->attach_graph(&grid);
    }
  }

  /// Run one 0 -> 2 request to settlement, polling `session` when
  /// given; returns the byte-exact trajectory fingerprint (deliveries +
  /// end time + event count).
  std::string run_request(Session* session = nullptr) {
    std::string deliveries;
    router->set_deliver_handler([&](const E2eOk& ok) {
      char line[160];
      std::snprintf(line, sizeof(line), "%u %u/%u s%d %.17g %lld\n",
                    ok.request_id, ok.pair_index + 1, ok.total_pairs,
                    ok.swaps, ok.fidelity,
                    static_cast<long long>(ok.deliver_time));
      deliveries += line;
      swap->release(ok);
    });
    E2eRequest req;
    req.src = 0;
    req.dst = 2;
    req.num_pairs = 2;
    req.min_fidelity = 0.25;
    req.link_min_fidelity = 0.7;
    net->start();
    router->submit(req);
    const auto& stats = router->stats();
    for (int i = 0; i < 4000 && stats.completed + stats.failed < 1; ++i) {
      net->run_for(sim::duration::milliseconds(1));
      if (netstate != nullptr) netstate->poll();
      if (session != nullptr) session->poll();
    }
    if (netstate != nullptr) netstate->finish();
    if (session != nullptr) session->finish();
    EXPECT_EQ(stats.completed, 1u);
    char tail[64];
    std::snprintf(tail, sizeof(tail), "end %lld %llu\n",
                  static_cast<long long>(net->simulator().now()),
                  static_cast<unsigned long long>(
                      net->simulator().events_processed()));
    deliveries += tail;
    return deliveries;
  }
};

TEST(NetStateRun, ByteIdenticalJsonlPerSeedOnBothBackends) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    SampledWorld first(backend, 11, /*sampled=*/true);
    SampledWorld second(backend, 11, /*sampled=*/true);
    const std::string d1 = first.run_request();
    const std::string d2 = second.run_request();
    EXPECT_EQ(d1, d2);
    ASSERT_GT(first.netstate->intervals(), 0u);
    EXPECT_EQ(first.netstate->jsonl(), second.netstate->jsonl());
  }
}

TEST(NetStateRun, AttachingTheHooksDoesNotPerturbTheTrajectory) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    SampledWorld bare(backend, 11, /*sampled=*/false);
    SampledWorld sampled(backend, 11, /*sampled=*/true);
    const std::string d_bare = bare.run_request();
    const std::string d_sampled = sampled.run_request();
    // Identical deliveries, end time, and event count: the accounting
    // hooks are pure observers (the fingerprint includes
    // events_processed).
    EXPECT_EQ(d_bare, d_sampled);
    EXPECT_EQ(bare.collector.route_length().count(),
              sampled.collector.route_length().count());
    EXPECT_DOUBLE_EQ(bare.collector.request_latency_hist().sum(),
                     sampled.collector.request_latency_hist().sum());
  }
}

TEST(NetStateRun, StreamHoldsTheCheckerInvariants) {
  SampledWorld w(qstate::BackendKind::kBellDiagonal, 11,
                 /*sampled=*/true);
  w.run_request();
  const std::string jsonl = w.netstate->jsonl();
  // One line per interval record plus the final summary; every record
  // carries the run label.
  EXPECT_EQ(count_of(jsonl, "\n"), w.netstate->intervals() + 1);
  EXPECT_EQ(count_of(jsonl, "\"i\":"), w.netstate->intervals());
  EXPECT_EQ(count_of(jsonl, "\"final\":true"), 1u);
  EXPECT_EQ(count_of(jsonl, "\"run\":\"test\""),
            w.netstate->intervals() + 1);
  // The final record carries the per-edge table, totals, and sketch.
  EXPECT_NE(jsonl.find("\"edges\":["), std::string::npos);
  EXPECT_NE(jsonl.find("\"totals\":{"), std::string::npos);
  EXPECT_NE(jsonl.find("\"sketch\":{"), std::string::npos);
  EXPECT_NE(jsonl.find("\"collector\":{"), std::string::npos);
  // Utilization is a coverage fraction: bounded by 1.
  EXPECT_GT(w.netstate->max_utilization(), 0.0);
  EXPECT_LE(w.netstate->max_utilization(), 1.0);
  // 7 edges fit the default sketch capacity: the ranking is exact.
  EXPECT_TRUE(w.edge_stats->hot_edges().exact());
  // finish() is idempotent and poll() after it is a no-op.
  w.netstate->finish();
  w.netstate->poll();
  EXPECT_EQ(w.netstate->jsonl(), jsonl);
}

TEST(NetStateRun, TotalsReconcileWithTheCollector) {
  SampledWorld w(qstate::BackendKind::kBellDiagonal, 11,
                 /*sampled=*/true);
  w.run_request();
  // Request-level counters agree between the per-edge substrate and
  // the Collector (stream_check.py netstate verifies the same from JSONL).
  EXPECT_EQ(w.edge_stats->deliveries(),
            w.collector.total_pairs_delivered());
  EXPECT_EQ(w.edge_stats->blocked_requests(),
            w.collector.requests_blocked());
  EXPECT_EQ(w.edge_stats->admission_waits(),
            w.collector.admission_wait().count());
  // Per-hop deliveries cover every delivered pair at least once.
  std::uint64_t hop_deliveries = 0;
  for (std::size_t e = 0; e < w.edge_stats->num_edges(); ++e) {
    hop_deliveries += w.edge_stats->edge(e).deliveries;
  }
  EXPECT_GE(hop_deliveries, w.edge_stats->deliveries());
}

TEST(NetStateRun, PhaseDecompositionCoversTheDeliveredPairs) {
  SampledWorld w(qstate::BackendKind::kBellDiagonal, 11,
                 /*sampled=*/true);
  w.run_request();
  const auto& c = w.collector;
  // Every delivered pair records its generation / swap-cascade /
  // delivery phases; the completed request records its admission wait.
  EXPECT_EQ(c.phase_hist(metrics::Phase::kGeneration).count(),
            c.total_pairs_delivered());
  EXPECT_EQ(c.phase_hist(metrics::Phase::kSwapCascade).count(),
            c.total_pairs_delivered());
  EXPECT_EQ(c.phase_hist(metrics::Phase::kDelivery).count(),
            c.total_pairs_delivered());
  EXPECT_GE(c.phase_hist(metrics::Phase::kAdmissionWait).count(), 1u);
  EXPECT_GT(c.phase_hist(metrics::Phase::kGeneration).sum(), 0.0);
  // The slowest-request keeper saw the completion, with its phase
  // vector summing to at most the total.
  ASSERT_FALSE(c.slowest_requests().empty());
  const auto& slow = c.slowest_requests().front();
  EXPECT_GT(slow.total_s, 0.0);
  double phase_sum = 0.0;
  for (const double s : slow.phase_s) phase_sum += s;
  EXPECT_LE(phase_sum, slow.total_s + 1e-9);
}

TEST(NetStateRun, RunReportRendersTheRun) {
  SampledWorld w(qstate::BackendKind::kBellDiagonal, 11,
                 /*sampled=*/true);
  w.run_request();
  const std::string md = render_run_report(
      w.net->simulator(), *w.edge_stats, w.collector, &w.grid, "test run");
  EXPECT_NE(md.find("### test run"), std::string::npos);
  EXPECT_NE(md.find("Hot edges"), std::string::npos);
  EXPECT_NE(md.find("Latency phases"), std::string::npos);
  EXPECT_NE(md.find("Slowest requests"), std::string::npos);
  EXPECT_NE(md.find("generation"), std::string::npos);
  // Deterministic rendering: same state, same bytes.
  EXPECT_EQ(md, render_run_report(w.net->simulator(), *w.edge_stats,
                                  w.collector, &w.grid, "test run"));
}

TEST(NetStateRun, SessionMatchesTheHandWiredObservers) {
  SampledWorld wired(qstate::BackendKind::kBellDiagonal, 11,
                     /*sampled=*/true);
  SampledWorld bare(qstate::BackendKind::kBellDiagonal, 11,
                    /*sampled=*/false);
  Session session(bare.collector, {.run = "test"}, /*trace=*/true);
  session.attach(*bare.router);
  session.watch({.run = "test"});
  // A full session (Monitor and Tracer too) leaves the trajectory
  // untouched, and its NetState stream and report equal the ones the
  // hand-wired observers produce.
  EXPECT_EQ(wired.run_request(), bare.run_request(&session));
  EXPECT_EQ(session.netstate_jsonl(), wired.netstate->jsonl());
  EXPECT_EQ(session.report("t"),
            render_run_report(wired.net->simulator(), *wired.edge_stats,
                              wired.collector, &wired.grid, "t"));
  EXPECT_EQ(session.max_utilization(), wired.netstate->max_utilization());
  ASSERT_TRUE(session.monitored());
  EXPECT_EQ(count_of(session.monitor_jsonl(), "\"final\":true"), 1u);
  ASSERT_NE(session.tracer(), nullptr);
  EXPECT_GT(session.tracer()->num_events(), 0u);
  // The full-detail plane's counters ride in the snapshot.
  EXPECT_NE(session.snapshot_json().find("\"swap\""), std::string::npos);
  EXPECT_NE(session.snapshot_json().find("\"backend\""), std::string::npos);
}

}  // namespace
}  // namespace qlink::obs
