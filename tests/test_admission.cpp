#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "routing/router.hpp"

/// Scheduler-grade admission control (ISSUE 5): deferred window
/// bookings, permanent re-routing exclusions, and the batch drain,
/// exercised over a real QuantumNetwork. Pure ReservationTable
/// window/heap/drain mechanics live in test_routing.cpp.

namespace qlink::netlayer {
namespace {

// ---------------------------------------------------------------------------
// Deferred admission on a contended chain corridor.
//
// chain 0-1-2 with edges a=(0,1), b=(1,2). Two heads lease a and b
// with staggered windows (head_b asks for more pairs), a waiter wants
// the whole corridor, and a long newcomer for edge a lands between the
// two lease ends — the bench_admission scenario, shrunk to one
// corridor.

struct ContendedChain {
  routing::Graph chain;
  std::unique_ptr<QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<SwapService> swap;
  std::unique_ptr<routing::Router> router;
  std::uint64_t expected = 4;

  explicit ContendedChain(qstate::BackendKind backend, std::uint64_t seed,
                          bool scheduler)
      : chain(routing::Graph::chain(3)) {
    NetworkConfig nc =
        routing::make_network_config(chain, core::LinkConfig{}, seed);
    nc.link.backend = backend;
    nc.link.pauli_twirl_installs =
        backend == qstate::BackendKind::kBellDiagonal;
    nc.link.scenario = hw::ScenarioParams::lab();
    nc.link.scenario.nv.carbon_t2_ns = 5e9;
    nc.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
    net = std::make_unique<QuantumNetwork>(nc);
    swap = std::make_unique<SwapService>(*net, &collector);
    routing::RouterConfig rc;
    rc.k_candidates = 1;
    // Leases lapse before holders finish (slack < 1), so admission is
    // governed by the lease calendar deferred booking schedules.
    rc.lease_slack = 0.5;
    rc.scheduled_admission = scheduler;
    router = std::make_unique<routing::Router>(chain, *swap, rc, &collector);
    const double menu[] = {0.7};
    router->annotate_from_network(menu);
  }

  static E2eRequest request(std::uint32_t src, std::uint32_t dst,
                            std::uint16_t pairs) {
    E2eRequest req;
    req.src = src;
    req.dst = dst;
    req.num_pairs = pairs;
    req.min_fidelity = 0.25;
    req.link_min_fidelity = 0.7;
    return req;
  }

  /// Submit heads + waiter now, schedule the newcomer between the two
  /// head leases' ends, run to completion, return a byte-exact trace.
  std::string run() {
    std::string trace;
    router->set_deliver_handler([this, &trace](const E2eOk& ok) {
      char line[160];
      std::snprintf(line, sizeof(line),
                    "%u %u/%u q%llu-q%llu %.17g %lld\n", ok.request_id,
                    ok.pair_index + 1, ok.total_pairs,
                    static_cast<unsigned long long>(ok.qubit_src),
                    static_cast<unsigned long long>(ok.qubit_dst),
                    ok.fidelity, static_cast<long long>(ok.deliver_time));
      trace += line;
      swap->release(ok);
    });

    net->start();
    const auto req_a = request(0, 1, 4);
    const auto req_b = request(1, 2, 8);
    router->submit(req_a);
    router->submit(req_b);
    router->submit(request(0, 2, 2));  // the waiter

    const auto path_a = *router->selector().shortest(0, 1);
    const auto path_b = *router->selector().shortest(1, 2);
    const sim::SimTime t1 = router->lease_duration(path_a, req_a);
    const sim::SimTime t2 = router->lease_duration(path_b, req_b);
    net->simulator().schedule_at(t1 + (t2 - t1) / 2, [this] {
      router->submit(request(0, 1, 16));  // the newcomer
    });

    const auto& stats = router->stats();
    for (int i = 0; i < 8000 && stats.completed + stats.failed < expected;
         ++i) {
      net->run_for(sim::duration::milliseconds(1));
    }
    EXPECT_EQ(stats.completed, expected);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(router->reservations().active(), 0u);

    char tail[64];
    std::snprintf(tail, sizeof(tail), "end %lld\n",
                  static_cast<long long>(net->simulator().now()));
    trace += tail;
    return trace;
  }
};

TEST(DeferredAdmission, BooksWindowsInsteadOfQueueingBlind) {
  ContendedChain world(qstate::BackendKind::kBellDiagonal, 11,
                       /*scheduler=*/true);
  world.run();
  const auto& stats = world.router->stats();
  // The waiter and the newcomer both fit nothing at submission: both
  // book windows, nobody parks blind, nobody jumps the queue.
  EXPECT_EQ(stats.deferred, 2u);
  EXPECT_GT(stats.deferred_wait_total, 0);
  EXPECT_EQ(stats.blocked, 0u);
  EXPECT_EQ(world.router->reservations().steals(), 0u);
  EXPECT_EQ(world.router->deferred_pending(), 0u);
  EXPECT_EQ(world.collector.deferrals(), 2u);
  EXPECT_EQ(world.collector.admission_wait().count(), 4u);
}

TEST(DeferredAdmission, QueueBlindPolicyStealsAndWaitsLonger) {
  ContendedChain pr4(qstate::BackendKind::kBellDiagonal, 11,
                     /*scheduler=*/false);
  pr4.run();
  ContendedChain sched(qstate::BackendKind::kBellDiagonal, 11,
                       /*scheduler=*/true);
  sched.run();

  // Queue-blind: the newcomer snatches edge a the moment its lease
  // lapses while the waiter still cannot start — a queue jump that
  // pushes the waiter's admission past the newcomer's whole window.
  EXPECT_EQ(pr4.router->stats().deferred, 0u);
  EXPECT_GE(pr4.router->stats().blocked, 1u);
  EXPECT_EQ(pr4.router->reservations().steals(), 1u);
  EXPECT_EQ(pr4.collector.admission_steals(), 1u);
  // The scheduler admits strictly earlier on average and in the tail.
  EXPECT_LT(sched.collector.admission_wait().mean(),
            pr4.collector.admission_wait().mean());
  EXPECT_LT(sched.collector.admission_wait().max(),
            pr4.collector.admission_wait().max());
}

TEST(DeferredAdmission, ByteIdenticalPerSeedOnBothBackends) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    ContendedChain first(backend, 11, /*scheduler=*/true);
    ContendedChain second(backend, 11, /*scheduler=*/true);
    const std::string a = first.run();
    const std::string b = second.run();
    EXPECT_EQ(a, b);
    EXPECT_NE(a.find('\n'), std::string::npos);
    EXPECT_EQ(first.router->stats().deferred,
              second.router->stats().deferred);
  }
}

// ---------------------------------------------------------------------------
// Re-routing exclusions on a ring whose both 0 -> 2 corridors are dead.
//
// ring 0-1-2-3 with herald visibility 0.25 on (1,2) and (2,3): every
// 0 -> 2 route fails with UNSUPP at the edge entering node 2.
// Exclusions last for the request's lifetime, so the second failure
// exhausts the candidate space.

struct DeadRing {
  routing::Graph ring;
  std::size_t dead_a;
  std::size_t dead_b;
  std::unique_ptr<QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<SwapService> swap;
  std::unique_ptr<routing::Router> router;
  std::vector<E2eErr> errors;

  explicit DeadRing(std::size_t max_reroutes)
      : ring(routing::Graph::ring(4)),
        dead_a(ring.find_edge(1, 2)),
        dead_b(ring.find_edge(2, 3)) {
    NetworkConfig nc =
        routing::make_network_config(ring, core::LinkConfig{}, 13);
    nc.link.backend = qstate::BackendKind::kBellDiagonal;
    nc.link.pauli_twirl_installs = true;
    nc.link.scenario = hw::ScenarioParams::lab();
    nc.configure_link = [this](std::size_t link, core::LinkConfig& lc) {
      if (link == dead_a || link == dead_b) {
        lc.scenario.herald.visibility = 0.25;
      }
    };
    net = std::make_unique<QuantumNetwork>(nc);
    swap = std::make_unique<SwapService>(*net, &collector);
    routing::RouterConfig rc;
    rc.k_candidates = 4;
    rc.max_reroutes = max_reroutes;
    router = std::make_unique<routing::Router>(ring, *swap, rc, &collector);
    const double menu[] = {0.7};
    router->annotate_from_network(menu);
    router->set_error_handler(
        [this](const E2eErr& err) { errors.push_back(err); });
  }

  void run_to_settlement() {
    const auto& stats = router->stats();
    for (int i = 0; i < 2000 && stats.completed + stats.failed < 1; ++i) {
      net->run_for(sim::duration::milliseconds(1));
    }
  }
};

TEST(ExclusionDecay, PermanentExclusionExhaustsCandidatesAfterOneReroute) {
  DeadRing w(/*max_reroutes=*/5);
  w.net->start();
  w.router->submit(ContendedChain::request(0, 2, 1));
  w.run_to_settlement();
  // Both corridors join the exclusion set and stay there: one re-route,
  // then the candidate space is dry and the request is abandoned.
  EXPECT_EQ(w.router->stats().rerouted, 1u);
  EXPECT_EQ(w.router->stats().abandoned, 1u);
  EXPECT_EQ(w.router->stats().failed, 1u);
  EXPECT_EQ(w.collector.route_length().count(), 2u);
  ASSERT_EQ(w.errors.size(), 1u);
}

TEST(ExclusionLifetime, ExcludedCorridorStaysOutWhileTheRerouteWaits) {
  // A blocker pins the sibling corridor's healthy edge (3, 0), so the
  // re-route after the first failure queues behind it and only admits
  // once the blocker completes: real sim time passes between the two
  // failures. The first corridor's exclusion survives that wait, so
  // the second failure still exhausts the candidate space.
  DeadRing w(/*max_reroutes=*/5);
  w.net->start();
  w.router->submit(ContendedChain::request(0, 3, 4));  // the blocker
  w.router->submit(ContendedChain::request(0, 2, 1));

  const auto& stats = w.router->stats();
  while (w.collector.reroutes() < 1 && stats.failed == 0) {
    ASSERT_TRUE(w.net->simulator().step());
  }
  const sim::SimTime first_failure = w.net->simulator().now();
  for (int i = 0; i < 2000 && stats.completed + stats.failed < 2; ++i) {
    w.net->run_for(sim::duration::milliseconds(1));
  }
  EXPECT_GT(w.net->simulator().now(), first_failure);
  EXPECT_EQ(stats.completed, 1u);  // the blocker
  EXPECT_EQ(stats.rerouted, 1u);
  EXPECT_EQ(stats.abandoned, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(w.collector.route_length().count(), 3u);
  ASSERT_EQ(w.errors.size(), 1u);
}

}  // namespace
}  // namespace qlink::netlayer
