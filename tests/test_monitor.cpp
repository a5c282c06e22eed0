#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>

#include "metrics/collector.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "obs/monitor.hpp"
#include "obs/trace.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"
#include "sim/simulator.hpp"

/// Live run monitor (ISSUE 7): interval time-series telemetry and the
/// stall watchdog. The load-bearing guarantees under test: byte-
/// identical JSONL per seed, *zero* trajectory perturbation from
/// attaching a monitor, delta/final consistency, and a watchdog that
/// trips on genuine starvation but nothing else.

namespace qlink::obs {
namespace {

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

// ---------------------------------------------------------------------------
// Monitored end-to-end run: the same 2x3 dead-edge world as
// test_obs.cpp's TracedWorld (shortest 0 -> 2 corridor fails, one
// reroute, completed request), with an obs::Monitor polled from the
// run loop.

struct MonitoredWorld {
  routing::Graph grid;
  std::unique_ptr<QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<SwapService> swap;
  std::unique_ptr<routing::Router> router;
  std::unique_ptr<Monitor> monitor;

  explicit MonitoredWorld(qstate::BackendKind backend, std::uint64_t seed,
                          bool monitored)
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
    if (monitored) {
      MonitorConfig mc;
      mc.run = "test";
      mc.target_requests = 1;
      monitor = std::make_unique<Monitor>(net->simulator(), collector,
                                          std::move(mc));
      monitor->attach_router(router.get());
    }
  }

  /// Run one 0 -> 2 request to settlement; returns the byte-exact
  /// trajectory fingerprint (deliveries + end time + event count).
  std::string run_request() {
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
      if (monitor != nullptr) monitor->poll();
    }
    if (monitor != nullptr) monitor->finish();
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

TEST(MonitoredRun, ByteIdenticalJsonlPerSeedOnBothBackends) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    MonitoredWorld first(backend, 11, /*monitored=*/true);
    MonitoredWorld second(backend, 11, /*monitored=*/true);
    const std::string d1 = first.run_request();
    const std::string d2 = second.run_request();
    EXPECT_EQ(d1, d2);
    ASSERT_GT(first.monitor->intervals(), 0u);
    EXPECT_EQ(first.monitor->jsonl(), second.monitor->jsonl());
    // A healthy run never trips the watchdog.
    EXPECT_EQ(first.monitor->stalled_intervals(), 0u);
  }
}

TEST(MonitoredRun, AttachingAMonitorDoesNotPerturbTheTrajectory) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    MonitoredWorld bare(backend, 11, /*monitored=*/false);
    MonitoredWorld monitored(backend, 11, /*monitored=*/true);
    const std::string d_bare = bare.run_request();
    const std::string d_monitored = monitored.run_request();
    // Identical deliveries, end time, and event count: the monitor is
    // a pure observer (the fingerprint includes events_processed).
    EXPECT_EQ(d_bare, d_monitored);
    EXPECT_EQ(bare.collector.route_length().count(),
              monitored.collector.route_length().count());
    EXPECT_DOUBLE_EQ(bare.collector.request_latency_hist().sum(),
                     monitored.collector.request_latency_hist().sum());
  }
}

TEST(MonitoredRun, RecordStreamHoldsTheCheckerInvariants) {
  MonitoredWorld w(qstate::BackendKind::kBellDiagonal, 11,
                   /*monitored=*/true);
  w.run_request();
  const std::string jsonl = w.monitor->jsonl();
  // One line per interval record plus the final summary.
  EXPECT_EQ(count_of(jsonl, "\n"), w.monitor->intervals() + 1);
  EXPECT_EQ(count_of(jsonl, "\"i\":"), w.monitor->intervals());
  EXPECT_EQ(count_of(jsonl, "\"final\":true"), 1u);
  // Every record carries the run label and a stalled verdict.
  EXPECT_EQ(count_of(jsonl, "\"run\":\"test\""),
            w.monitor->intervals() + 1);
  EXPECT_EQ(count_of(jsonl, "\"stalled\":"), w.monitor->intervals());
  // The request completed, so the trailing record reports full
  // progress and a zero ETA against target_requests = 1.
  EXPECT_NE(jsonl.find("\"progress\":1,"), std::string::npos);
  EXPECT_NE(jsonl.find("\"eta_s\":0}"), std::string::npos);
  // All deliveries are accounted for in the emitted deltas.
  EXPECT_EQ(w.monitor->total_deliveries(),
            w.collector.total_pairs_delivered());
  // Histogram deltas expose the exact observed extremes (ISSUE 8):
  // every per-interval histogram object carries min and max.
  EXPECT_EQ(count_of(jsonl, "\"min\":"), count_of(jsonl, "\"p99\":"));
  EXPECT_EQ(count_of(jsonl, "\"max\":"), count_of(jsonl, "\"p99\":"));
  EXPECT_GT(count_of(jsonl, "\"min\":"), 0u);
  // finish() is idempotent and poll() after it is a no-op.
  w.monitor->finish();
  w.monitor->poll();
  EXPECT_EQ(w.monitor->jsonl(), jsonl);
}

// ---------------------------------------------------------------------------
// Stall watchdog: a deliberately starved world. The network is never
// started, so no MHP cycle ever runs and nothing can be delivered;
// request A pins the single edge and request B blocks behind it, so
// the admission backlog stays at 1 while the clock advances.

struct StarvedWorld {
  routing::Graph chain;
  std::unique_ptr<QuantumNetwork> net;
  metrics::Collector collector;
  std::unique_ptr<SwapService> swap;
  std::unique_ptr<routing::Router> router;

  StarvedWorld() : chain(routing::Graph::chain(2)) {
    NetworkConfig nc =
        routing::make_network_config(chain, core::LinkConfig{}, 11);
    nc.link.scenario = hw::ScenarioParams::lab();
    net = std::make_unique<QuantumNetwork>(nc);
    swap = std::make_unique<SwapService>(*net, &collector);
    routing::RouterConfig rc;
    rc.cost = routing::CostModel::kHopCount;
    router = std::make_unique<routing::Router>(chain, *swap, rc, &collector);
    const double menu[] = {0.7};
    router->annotate_from_network(menu);
    E2eRequest req;
    req.src = 0;
    req.dst = 1;
    req.min_fidelity = 0.25;
    router->submit(req);  // A: admitted, pins the edge, never delivers
    router->submit(req);  // B: blocked behind A -> backlog 1
  }

  void starve_for(Monitor& monitor, int hundred_ms_steps) {
    for (int i = 0; i < hundred_ms_steps; ++i) {
      net->run_for(sim::duration::milliseconds(100));
      monitor.poll();
    }
    monitor.finish();
  }
};

TEST(StallWatchdog, FlagsStarvedIntervalsAndWarnsTheTracer) {
  StarvedWorld w;
  Tracer tracer;
  MonitorConfig mc;
  mc.run = "starved";
  mc.tracer = &tracer;
  Monitor monitor(w.net->simulator(), w.collector, std::move(mc));
  monitor.attach_router(w.router.get());

  w.starve_for(monitor, 10);

  // Every full interval starved: zero deliveries with a waiting
  // request. The default threshold (stall_consecutive = 1) flags all.
  EXPECT_EQ(monitor.intervals(), 10u);
  EXPECT_EQ(monitor.stalled_intervals(), 10u);
  EXPECT_EQ(monitor.peak_backlog(), 1u);
  EXPECT_EQ(monitor.total_deliveries(), 0u);
  const std::string jsonl = monitor.jsonl();
  EXPECT_EQ(count_of(jsonl, "\"stalled\":true"), 10u);
  // Each stall is mirrored as a warn instant on the tracer's global
  // lane, carrying the backlog and the oldest open request's age.
  EXPECT_EQ(count_of(tracer.jsonl(), "\"warn\""), 10u);
  EXPECT_NE(tracer.jsonl().find("\"backlog\":1"), std::string::npos);
  EXPECT_NE(tracer.jsonl().find("\"oldest_open_age_s\""),
            std::string::npos);
  // The leaked in-flight state surfaces: request A is still open and
  // aging (created at t = 0, last boundary at t = 1 s).
  EXPECT_GE(w.collector.open_requests(), 1u);
  ASSERT_TRUE(w.collector.oldest_open_created().has_value());
  EXPECT_EQ(*w.collector.oldest_open_created(), 0);
  EXPECT_NE(jsonl.find("\"oldest_open_age_s\":1,"), std::string::npos);
}

TEST(StallWatchdog, ConsecutiveThresholdDebouncesIsolatedQuietIntervals) {
  StarvedWorld w;
  MonitorConfig mc;
  mc.stall_consecutive = 3;
  Monitor monitor(w.net->simulator(), w.collector, std::move(mc));
  monitor.attach_router(w.router.get());

  w.starve_for(monitor, 10);

  // Intervals 0 and 1 build the run; 2..9 are at/past the threshold.
  EXPECT_EQ(monitor.intervals(), 10u);
  EXPECT_EQ(monitor.stalled_intervals(), 8u);
}

TEST(MonitorConfig, RejectsANonPositiveIntervalOrAZeroStallThreshold) {
  // Bad configs fail loudly instead of being rewritten to a default.
  sim::Simulator sim;
  metrics::Collector collector;
  for (const sim::SimTime interval : {sim::SimTime{0}, sim::SimTime{-1}}) {
    MonitorConfig mc;
    mc.interval = interval;
    EXPECT_THROW((Monitor{sim, collector, mc}), std::invalid_argument);
  }
  MonitorConfig mc;
  mc.stall_consecutive = 0;
  EXPECT_THROW((Monitor{sim, collector, mc}), std::invalid_argument);
  EXPECT_NO_THROW((Monitor{sim, collector, MonitorConfig{}}));
}

TEST(StallWatchdog, NeverFiresWithoutARouter) {
  // No router attached -> the backlog is unknowable, so starving the
  // run must not produce stall flags (only zero-delivery records).
  StarvedWorld w;
  Monitor monitor(w.net->simulator(), w.collector, MonitorConfig{});
  w.starve_for(monitor, 5);
  EXPECT_EQ(monitor.intervals(), 5u);
  EXPECT_EQ(monitor.stalled_intervals(), 0u);
  EXPECT_EQ(monitor.peak_backlog(), 0u);
  // Router-sourced fields stay out of the records entirely.
  EXPECT_EQ(monitor.jsonl().find("\"backlog\""), std::string::npos);
}

TEST(StallWatchdog, CoalescedSpanCountsItsCoveredIntervals) {
  // Polling only once after 5 intervals coalesces them into a single
  // record; its span still counts toward the consecutive threshold.
  StarvedWorld w;
  MonitorConfig mc;
  mc.stall_consecutive = 5;
  Monitor monitor(w.net->simulator(), w.collector, std::move(mc));
  monitor.attach_router(w.router.get());

  w.net->run_for(sim::duration::milliseconds(500));
  monitor.poll();
  monitor.finish();

  EXPECT_EQ(monitor.intervals(), 1u);
  EXPECT_EQ(monitor.stalled_intervals(), 1u);
  const std::string jsonl = monitor.jsonl();
  EXPECT_NE(jsonl.find("\"dt\":500000000"), std::string::npos);
}

}  // namespace
}  // namespace qlink::obs
