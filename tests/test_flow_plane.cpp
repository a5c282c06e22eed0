#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <vector>

#include "metrics/collector.hpp"
#include "netlayer/flow_plane.hpp"
#include "netlayer/swap_service.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"
#include "workload/arrival.hpp"
#include "workload/workload.hpp"

namespace qlink {
namespace {

using workload::ArrivalProcess;
using workload::ClassMixProcess;
using workload::PoissonProcess;
using workload::RequestShape;

// ---------------------------------------------------------------------
// Arrival processes: pure functions of (Random&, now).
// ---------------------------------------------------------------------

std::vector<sim::SimTime> arrival_train(const ArrivalProcess& process,
                                        std::uint64_t seed, std::size_t n) {
  sim::Random random(seed);
  std::vector<sim::SimTime> times;
  times.reserve(n);
  sim::SimTime now = 0;
  for (std::size_t i = 0; i < n; ++i) {
    now = process.next_arrival(random, now);
    times.push_back(now);
  }
  return times;
}

TEST(ArrivalProcess, SameSeedReplaysIdenticalTrain) {
  const auto mix = std::make_shared<PoissonProcess>(250.0);
  std::vector<ClassMixProcess::Class> classes(2);
  classes[0].weight = 3.0;
  classes[0].shape.num_pairs = 1;
  classes[1].weight = 1.0;
  classes[1].shape.num_pairs = 4;
  const ClassMixProcess mixed(mix, classes);

  EXPECT_EQ(arrival_train(mixed, 42, 500), arrival_train(mixed, 42, 500));
  EXPECT_NE(arrival_train(mixed, 42, 500), arrival_train(mixed, 43, 500));
  // Shapes replay too (the class draw consumes Random).
  sim::Random r1(7), r2(7);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(mixed.sample_shape(r1, 0).num_pairs,
              mixed.sample_shape(r2, 0).num_pairs);
  }
}

TEST(ArrivalProcess, PoissonGapsMatchMeanAndVariance) {
  const double rate = 200.0;
  const PoissonProcess poisson(rate);
  const auto train = arrival_train(poisson, 11, 20000);
  double sum = 0.0, sq = 0.0;
  sim::SimTime prev = 0;
  for (const sim::SimTime t : train) {
    const double gap = sim::to_seconds(t - prev);
    sum += gap;
    sq += gap * gap;
    prev = t;
  }
  const double n = static_cast<double>(train.size());
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  // Exponential(1/rate): mean 1/rate, variance 1/rate^2.
  EXPECT_NEAR(mean, 1.0 / rate, 0.05 / rate);
  EXPECT_NEAR(var, 1.0 / (rate * rate), 0.15 / (rate * rate));
}

TEST(ArrivalProcess, ClassMixDrawsByWeightAndPinsEndpoints) {
  std::vector<ClassMixProcess::Class> classes(3);
  classes[0].weight = 6.0;
  classes[0].shape.num_pairs = 1;
  classes[1].weight = 3.0;
  classes[1].shape.num_pairs = 2;
  classes[2].weight = 1.0;
  classes[2].shape.num_pairs = 5;
  classes[2].shape.endpoints = {{4, 9}};
  const ClassMixProcess mix(std::make_shared<PoissonProcess>(100.0),
                            classes);

  sim::Random random(23);
  std::map<std::uint16_t, std::size_t> counts;
  const std::size_t n = 20000;
  for (std::size_t i = 0; i < n; ++i) {
    const RequestShape shape = mix.sample_shape(random, 0);
    counts[shape.num_pairs] += 1;
    if (shape.num_pairs == 5) {
      ASSERT_EQ(shape.endpoints.size(), 1u);
      EXPECT_EQ(shape.endpoints.front(), (std::pair<std::uint32_t,
                                                    std::uint32_t>{4, 9}));
    }
  }
  const double total = static_cast<double>(n);
  EXPECT_NEAR(static_cast<double>(counts[1]) / total, 0.6, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / total, 0.3, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[5]) / total, 0.1, 0.02);
}

// ---------------------------------------------------------------------
// FlowPlane unit behavior (hand-built calibration: no hardware).
// ---------------------------------------------------------------------

netlayer::FlowCalibration toy_calibration() {
  netlayer::FlowCalibration cal;
  netlayer::FlowCalibration::Entry e;
  e.floor = 0.7;
  e.feasible = true;
  e.fidelity = 0.9;
  e.pair_time_s = 0.01;
  e.p_succ = 0.1;
  cal.menu.push_back(e);
  cal.delay_s = 0.001;
  return cal;
}

netlayer::FlowPlaneConfig toy_config(std::uint64_t seed) {
  netlayer::FlowPlaneConfig fc;
  fc.edges = {{0, 1}, {1, 2}};
  fc.calibration = toy_calibration();
  fc.seed = seed;
  return fc;
}

netlayer::E2eRequest chain_request(std::uint16_t pairs = 1) {
  netlayer::E2eRequest req;
  req.src = 0;
  req.dst = 2;
  req.num_pairs = pairs;
  req.min_fidelity = 0.5;
  req.link_min_fidelity = 0.7;
  return req;
}

const std::vector<netlayer::Hop> kChainRoute = {{0, false}, {1, false}};

TEST(FlowPlane, SameSeedReplaysIdenticalDeliveries) {
  std::vector<std::vector<std::pair<sim::SimTime, double>>> runs;
  for (int run = 0; run < 2; ++run) {
    netlayer::FlowPlane plane(toy_config(99));
    std::vector<std::pair<sim::SimTime, double>> got;
    plane.set_deliver_handler([&got](const netlayer::E2eOk& ok) {
      got.emplace_back(ok.deliver_time, ok.fidelity);
    });
    for (int i = 0; i < 50; ++i) plane.submit(chain_request(2), kChainRoute);
    plane.run_for(sim::duration::seconds(1000));
    EXPECT_EQ(got.size(), 100u);
    runs.push_back(std::move(got));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST(FlowPlane, DeliveriesIncludeCorrectionDelayAndComposedFidelity) {
  netlayer::FlowPlane plane(toy_config(3));
  std::vector<netlayer::E2eOk> oks;
  plane.set_deliver_handler(
      [&oks](const netlayer::E2eOk& ok) { oks.push_back(ok); });
  plane.submit(chain_request(1), kChainRoute);
  plane.run_for(sim::duration::seconds(100));
  ASSERT_EQ(oks.size(), 1u);
  // Two-hop summed one-way delay rides on every delivery.
  EXPECT_GE(oks[0].deliver_time - oks[0].submit_time,
            sim::duration::seconds(2 * 0.001));
  EXPECT_EQ(oks[0].swaps, 1);
  // Swap composition of two 0.9 Werner pairs, not the raw link value.
  EXPECT_LT(oks[0].fidelity, 0.9);
  EXPECT_GT(oks[0].fidelity, 0.7);
}

TEST(FlowPlane, LinkServiceIsFifoAcrossRequests) {
  netlayer::FlowPlane plane(toy_config(17));
  std::vector<std::uint32_t> order;
  plane.set_deliver_handler([&order](const netlayer::E2eOk& ok) {
    order.push_back(ok.request_id);
  });
  std::vector<std::uint32_t> submitted;
  for (int i = 0; i < 20; ++i) {
    submitted.push_back(plane.submit(chain_request(1), kChainRoute));
  }
  plane.run_for(sim::duration::seconds(1000));
  // Same route for everyone: the per-link FIFO timeline makes request n
  // finish all hops no later than request n+1 can.
  EXPECT_EQ(order, submitted);
}

TEST(FlowPlane, InfeasibleFloorFailsAsynchronously) {
  metrics::Collector collector;
  netlayer::FlowPlaneConfig fc = toy_config(1);
  fc.collector = &collector;
  netlayer::FlowPlane plane(std::move(fc));
  std::vector<netlayer::E2eErr> errs;
  plane.set_error_handler(
      [&errs](const netlayer::E2eErr& err) { errs.push_back(err); });
  netlayer::E2eRequest req = chain_request(1);
  req.link_min_fidelity = 0.95;  // above the only calibrated floor
  const std::uint32_t id = plane.submit(req, kChainRoute);
  EXPECT_TRUE(errs.empty());  // asynchronous, like a real UNSUPP ERR
  plane.run_for(sim::duration::seconds(1));
  ASSERT_EQ(errs.size(), 1u);
  EXPECT_EQ(errs[0].request_id, id);
  EXPECT_EQ(errs[0].error, core::EgpError::kUnsupported);
  // The failure closes the request's Collector entry, as on SwapService.
  EXPECT_EQ(collector.errors(core::EgpError::kUnsupported), 1u);
  EXPECT_EQ(collector.open_requests(), 0u);
}

TEST(FlowPlane, ResubmissionIsRecordedAsARerouteNotANewRequest) {
  metrics::Collector collector;
  netlayer::FlowPlaneConfig fc = toy_config(5);
  fc.collector = &collector;
  netlayer::FlowPlane plane(std::move(fc));
  netlayer::E2eRequest first = chain_request(1);
  first.link_min_fidelity = 0.95;  // fails: infeasible floor
  const std::uint32_t failed = plane.submit(first, kChainRoute);
  plane.run_for(sim::duration::seconds(1));

  netlayer::E2eRequest retry = chain_request(1);
  retry.resubmission_of = failed;
  retry.submitted_at = 0;
  plane.submit(retry, kChainRoute);
  plane.run_for(sim::duration::seconds(100));

  const auto& nl = collector.kind(core::Priority::kNetworkLayer);
  EXPECT_EQ(collector.reroutes(), 1u);
  EXPECT_EQ(nl.requests_submitted, 1u);
  EXPECT_EQ(nl.requests_completed, 1u);
  EXPECT_EQ(collector.open_requests(), 0u);
}

TEST(FlowPlane, RecordsCreateOkAndPhasesIntoCollector) {
  metrics::Collector collector;
  netlayer::FlowPlaneConfig fc = toy_config(31);
  fc.collector = &collector;
  netlayer::FlowPlane plane(std::move(fc));
  plane.submit(chain_request(3), kChainRoute);
  plane.run_for(sim::duration::seconds(100));

  const auto& nl = collector.kind(core::Priority::kNetworkLayer);
  EXPECT_EQ(nl.requests_submitted, 1u);
  EXPECT_EQ(nl.pairs_delivered, 3u);
  EXPECT_EQ(nl.requests_completed, 1u);
  EXPECT_EQ(nl.request_latency_s.count(), 1u);
  EXPECT_GT(nl.fidelity.mean(), 0.7);
  // The phase decomposition (generation + correction, swap folded into
  // the model) accounts for each pair's latency at flow level too.
  EXPECT_EQ(collector.phase_hist(metrics::Phase::kGeneration).count(), 3u);
  EXPECT_EQ(collector.phase_hist(metrics::Phase::kDelivery).count(), 3u);
  EXPECT_GT(collector.phase_hist(metrics::Phase::kDelivery).mean(), 0.0);
}

// ---------------------------------------------------------------------
// The oracle: flow vs full detail on a 3-node chain, same traffic.
// ---------------------------------------------------------------------

core::LinkConfig oracle_link_config(std::uint64_t seed) {
  core::LinkConfig lc;
  lc.scenario = hw::ScenarioParams::lab();
  lc.scenario.nv.carbon_t2_ns = 5e9;
  lc.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  lc.backend = qstate::BackendKind::kBellDiagonal;
  lc.pauli_twirl_installs = true;
  lc.seed = seed;
  return lc;
}

struct OracleResult {
  double p50 = 0.0;
  double p99 = 0.0;
  double mean_fidelity = 0.0;
  std::uint64_t completed = 0;
};

workload::TrafficConfig oracle_traffic(double rate_hz) {
  workload::TrafficConfig traffic;
  traffic.origin = workload::OriginMode::kAllA;  // endpoints pinned (0, 2)
  traffic.min_fidelity = 0.4;
  traffic.link_min_fidelity = 0.7;
  traffic.arrivals = std::make_shared<PoissonProcess>(rate_hz);
  return traffic;
}

template <typename Plane, typename RunFor>
OracleResult drive_oracle(routing::Router& router,
                          metrics::Collector& collector, Plane& plane,
                          RunFor&& run_for, double rate_hz,
                          std::uint64_t requests) {
  workload::DriverConfig tuning;
  tuning.seed = 7;
  tuning.poll_interval = sim::duration::milliseconds(1);
  tuning.max_requests = requests;
  auto driver = workload::WorkloadDriver::for_routed(
      router, oracle_traffic(rate_hz), tuning, collector);
  driver->start();
  const auto& rs = router.stats();
  while ((driver->requests_issued() < requests ||
          rs.completed + rs.failed + rs.rejected < rs.submitted) &&
         sim::to_seconds(plane.simulator().now()) < 300.0) {
    run_for(sim::duration::milliseconds(500));
  }
  driver->stop();
  OracleResult result;
  result.p50 = collector.request_latency_hist().p50();
  result.p99 = collector.request_latency_hist().p99();
  result.mean_fidelity =
      collector.kind(core::Priority::kNetworkLayer).fidelity.mean();
  result.completed = rs.completed;
  return result;
}

double relerr(double cur, double ref) {
  return std::abs(cur - ref) / std::max(std::abs(ref), 1e-9);
}

TEST(FlowPlaneOracle, MatchesFullDetailTailsOnChain) {
  constexpr std::uint64_t kSeed = 7;
  constexpr std::uint64_t kRequests = 120;
  const double floor_menu[] = {0.7};

  // Shared operating point: one standalone link, probed once.
  netlayer::FlowCalibration cal;
  {
    core::Link link(oracle_link_config(kSeed));
    cal = netlayer::FlowCalibration::from_link(link, floor_menu);
  }
  ASSERT_NE(cal.best(), nullptr);
  const double rate_hz = 0.3 / cal.best()->pair_time_s;

  // Full-detail leg.
  OracleResult full;
  {
    routing::Graph graph = routing::Graph::chain(3);
    netlayer::NetworkConfig nc = routing::make_network_config(
        graph, oracle_link_config(kSeed), kSeed);
    netlayer::QuantumNetwork net(nc);
    metrics::Collector collector;
    netlayer::SwapService swap(net, &collector);
    routing::Router router(graph, swap, {}, &collector);
    router.annotate_from_network(floor_menu);
    net.start();
    full = drive_oracle(router, collector, net,
                        [&net](sim::SimTime span) { net.run_for(span); },
                        rate_hz, kRequests);
  }

  // Flow leg, identical traffic.
  OracleResult flow;
  {
    routing::Graph graph = routing::Graph::chain(3);
    metrics::Collector collector;
    netlayer::FlowPlaneConfig fc;
    for (const routing::Graph::Edge& e : graph.edges()) {
      fc.edges.emplace_back(e.a, e.b);
    }
    fc.calibration = cal;
    fc.collector = &collector;
    fc.seed = kSeed;
    netlayer::FlowPlane plane(std::move(fc));
    routing::Router router(graph, plane, {}, &collector);
    router.annotate_from_network(floor_menu);
    flow = drive_oracle(router, collector, plane,
                        [&plane](sim::SimTime span) { plane.run_for(span); },
                        rate_hz, kRequests);
  }

  ASSERT_EQ(full.completed, kRequests);
  ASSERT_EQ(flow.completed, kRequests);
  // Documented fast-path tolerance (see DESIGN.md "Workload engine"):
  // latency percentiles within 35% of the oracle at this sample size
  // (bench_workload_scale gates the same bound at 400 requests in CI),
  // mean delivered fidelity within 0.02 absolute.
  EXPECT_LT(relerr(flow.p50, full.p50), 0.35)
      << "p50 " << flow.p50 << " vs " << full.p50;
  EXPECT_LT(relerr(flow.p99, full.p99), 0.35)
      << "p99 " << flow.p99 << " vs " << full.p99;
  EXPECT_NEAR(flow.mean_fidelity, full.mean_fidelity, 0.02);
}

}  // namespace
}  // namespace qlink
