#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "metrics/collector.hpp"
#include "net/channel.hpp"
#include "netlayer/flow_plane.hpp"
#include "netlayer/swap_service.hpp"
#include "netlayer/topology.hpp"
#include "qstate/state_store.hpp"
#include "routing/router.hpp"
#include "sim/sharded_engine.hpp"

/// Sharded-run coverage (ISSUE 10): single-shard byte-identity against
/// the engine-less construction path, shard-merged Collector totals,
/// cross-shard channel delivery, and a deterministic multi-shard smoke.

namespace qlink {
namespace {

netlayer::NetworkConfig chain_config(std::size_t links, std::uint64_t seed,
                                     qstate::BackendKind backend) {
  netlayer::NetworkConfig c = routing::make_network_config(
      routing::Graph::chain(links + 1), core::LinkConfig{}, seed);
  c.link.scenario = hw::ScenarioParams::lab();
  c.link.scenario.nv.carbon_t2_ns = 0.5e9;
  c.link.scenario.nv.carbon_coupling_rad_per_s /= 10.0;
  c.link.backend = backend;
  c.link.pauli_twirl_installs = backend == qstate::BackendKind::kBellDiagonal;
  return c;
}

/// Everything observable about a delivery, flattened for bytewise
/// comparison between runs (cf. test_netlayer.cpp).
struct DeliveryRecord {
  std::uint32_t request_id;
  std::uint32_t seq_src;
  std::uint32_t seq_dst;
  std::uint64_t qubit_src;
  std::uint64_t qubit_dst;
  std::int64_t deliver_time;
  double fidelity;
};

std::vector<std::uint8_t> to_bytes(const std::vector<DeliveryRecord>& rs) {
  std::vector<std::uint8_t> bytes;
  auto put = [&bytes](const auto& v) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(v));
  };
  for (const DeliveryRecord& r : rs) {
    put(r.request_id);
    put(r.seq_src);
    put(r.seq_dst);
    put(r.qubit_src);
    put(r.qubit_dst);
    put(r.deliver_time);
    put(r.fidelity);
  }
  return bytes;
}

std::vector<DeliveryRecord> run_chain(qstate::BackendKind backend,
                                      sim::ShardedEngine* engine) {
  netlayer::NetworkConfig cfg = chain_config(2, 77, backend);
  cfg.engine = engine;
  netlayer::QuantumNetwork net(cfg);
  netlayer::SwapService swap(net);
  std::vector<DeliveryRecord> records;
  swap.set_deliver_handler([&](const netlayer::E2eOk& ok) {
    records.push_back(DeliveryRecord{
        ok.request_id, ok.ok_src.ent_id.seq_mhp, ok.ok_dst.ent_id.seq_mhp,
        ok.qubit_src, ok.qubit_dst, ok.deliver_time, ok.fidelity});
    swap.release(ok);
  });
  netlayer::E2eRequest req;
  req.src = 0;
  req.dst = 2;
  req.num_pairs = 3;
  req.link_min_fidelity = 0.75;
  net.start();
  swap.request(req);
  for (int i = 0; i < 800000 && records.size() < 3; ++i) {
    net.run_for(sim::duration::microseconds(100));
  }
  return records;
}

/// The tentpole's byte-identity bar: a network on its default owned
/// engine and one bound to an explicit single-shard ShardedEngine must
/// replay today's seeded trajectories exactly, on both qstate backends.
TEST(ShardedNet, SingleShardByteIdenticalOnBothBackends) {
  for (const auto backend : {qstate::BackendKind::kDense,
                             qstate::BackendKind::kBellDiagonal}) {
    SCOPED_TRACE(static_cast<int>(backend));
    const auto owned = run_chain(backend, nullptr);
    ASSERT_EQ(owned.size(), 3u);
    sim::ShardedEngine engine;  // explicit single-shard engine
    const auto explicit_engine = run_chain(backend, &engine);
    EXPECT_EQ(to_bytes(owned), to_bytes(explicit_engine))
        << "explicit single-shard engine must not perturb trajectories";
  }
}

// ---------------------------------------------------------------------
// Flow-plane islands
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

/// One 3-node flow island bound to (engine, shard), submissions made
/// up front, deliveries recorded through its own Collector.
struct Island {
  explicit Island(std::uint64_t seed, sim::ShardedEngine* engine = nullptr,
                  std::size_t shard = 0) {
    netlayer::FlowPlaneConfig fc;
    fc.num_nodes = 3;
    fc.edges = {{0, 1}, {1, 2}};
    fc.calibration = toy_calibration();
    fc.collector = &collector;
    fc.seed = seed;
    fc.engine = engine;
    fc.shard = shard;
    plane = std::make_unique<netlayer::FlowPlane>(std::move(fc));
    plane->set_deliver_handler([this](const netlayer::E2eOk& ok) {
      deliveries.emplace_back(ok.deliver_time, ok.fidelity);
    });
  }

  metrics::Collector collector;
  std::unique_ptr<netlayer::FlowPlane> plane;
  std::vector<std::pair<sim::SimTime, double>> deliveries;
};

/// Shard-merge bar: island trajectories must be independent of shard
/// placement, so Collector::merge over a 2-shard run equals the same
/// two islands run unsharded (each on its own private engine), even
/// with a live heartbeat channel between the shards.
TEST(ShardedNet, ShardMergedCollectorMatchesUnsharded) {
  sim::ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  sim::ShardedEngine engine(cfg);
  Island sharded_a(11, &engine, 0);
  Island sharded_b(22, &engine, 1);
  for (int i = 0; i < 30; ++i) {
    sharded_a.plane->submit(chain_request(2), kChainRoute);
    sharded_b.plane->submit(chain_request(1), kChainRoute);
  }
  // A frame each way every 100 ms for the first 5 s, 50 ms in flight.
  sim::Random random0(31), random1(32);
  net::ClassicalChannel heartbeat(engine.ref(0), random0, engine.ref(1),
                                  random1, "heartbeat",
                                  sim::duration::milliseconds(50));
  std::array<int, 2> heard{0, 0};
  for (int end = 0; end < 2; ++end) {
    heartbeat.set_receiver(end, [&heard, end](std::vector<std::uint8_t>) {
      ++heard[static_cast<std::size_t>(end)];
    });
  }
  std::array<std::function<void()>, 2> ticks;
  for (int end = 0; end < 2; ++end) {
    sim::Simulator& sim = engine.sim(static_cast<std::size_t>(end));
    auto& tick = ticks[static_cast<std::size_t>(end)];
    tick = [&heartbeat, &sim, &tick, end] {
      heartbeat.send_from(end, {0xA1});
      if (sim.now() < sim::duration::seconds(5)) {
        sim.schedule_in(sim::duration::milliseconds(100), tick,
                        "test.heartbeat");
      }
    };
    sim.schedule_in(sim::duration::milliseconds(100), tick,
                    "test.heartbeat");
  }
  engine.run_until(sim::duration::seconds(1000));
  EXPECT_EQ(heard[0], 50);
  EXPECT_EQ(heard[1], 50);

  Island solo_a(11);
  Island solo_b(22);
  for (int i = 0; i < 30; ++i) {
    solo_a.plane->submit(chain_request(2), kChainRoute);
    solo_b.plane->submit(chain_request(1), kChainRoute);
  }
  solo_a.plane->run_until(sim::duration::seconds(1000));
  solo_b.plane->run_until(sim::duration::seconds(1000));

  // Placement-independent trajectories, before any merging.
  EXPECT_EQ(sharded_a.deliveries, solo_a.deliveries);
  EXPECT_EQ(sharded_b.deliveries, solo_b.deliveries);
  ASSERT_EQ(sharded_a.deliveries.size(), 60u);
  ASSERT_EQ(sharded_b.deliveries.size(), 30u);

  metrics::Collector sharded;
  sharded.merge(sharded_a.collector);
  sharded.merge(sharded_b.collector);
  metrics::Collector solo;
  solo.merge(solo_a.collector);
  solo.merge(solo_b.collector);

  EXPECT_EQ(sharded.total_pairs_delivered(), solo.total_pairs_delivered());
  const auto& snl = sharded.kind(core::Priority::kNetworkLayer);
  const auto& unl = solo.kind(core::Priority::kNetworkLayer);
  EXPECT_EQ(snl.pairs_delivered, unl.pairs_delivered);
  EXPECT_NEAR(snl.fidelity.mean(), unl.fidelity.mean(), 1e-9);
  EXPECT_NEAR(snl.pair_latency_s.mean(), unl.pair_latency_s.mean(), 1e-9);
}

// ---------------------------------------------------------------------
// The shard-crossing seam
// ---------------------------------------------------------------------

TEST(ShardedNet, CrossShardChannelDeliversAtDelay) {
  sim::ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  sim::ShardedEngine engine(cfg);
  sim::Random random0(1), random1(2);
  const sim::SimTime delay = sim::duration::milliseconds(5);
  net::ClassicalChannel channel(engine.ref(0), random0, engine.ref(1),
                                random1, "xshard", delay);

  std::vector<std::pair<sim::SimTime, std::size_t>> received;
  channel.set_receiver(1, [&](std::vector<std::uint8_t> frame) {
    received.emplace_back(engine.sim(1).now(), frame.size());
  });
  const sim::SimTime send_at = sim::duration::milliseconds(3);
  engine.sim(0).schedule_at(send_at,
                            [&] { channel.send_from(0, {1, 2, 3}); });
  engine.run_until(sim::duration::milliseconds(20));
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, send_at + delay);
  EXPECT_EQ(received[0].second, 3u);
  EXPECT_EQ(channel.frames_sent(), 1u);
  EXPECT_EQ(channel.frames_delivered(), 1u);

  // Endpoints on two different engines share no clock.
  sim::ShardedEngine other;
  EXPECT_THROW(net::ClassicalChannel(engine.ref(0), random0, other.ref(0),
                                     random1, "split", delay),
               std::invalid_argument);
}

TEST(ShardedNet, ZeroDelayCrossShardChannelDeliversAtTheSendTime) {
  sim::ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  sim::ShardedEngine engine(cfg);
  sim::Random random0(1), random1(2);
  net::ClassicalChannel channel(engine.ref(1), random1, engine.ref(0),
                                random0, "instant", 0);
  std::vector<sim::SimTime> received;
  channel.set_receiver(1, [&](std::vector<std::uint8_t>) {
    received.push_back(engine.sim(0).now());
  });
  // Sent from the higher shard into the lower one, at the same instant
  // as a pending shard-0 event that therefore runs first.
  bool earlier_ran = false;
  engine.sim(0).schedule_at(7, [&] { earlier_ran = received.empty(); });
  engine.sim(1).schedule_at(7, [&] { channel.send_from(0, {1}); });
  engine.run_until(10);
  EXPECT_TRUE(earlier_ran);
  EXPECT_EQ(received, std::vector<sim::SimTime>{7});
}

/// Deterministic-per-seed multi-shard smoke: flow islands plus live
/// cross-shard channel chatter, run twice — identical deliveries and
/// frame arrivals both times.
std::vector<std::pair<sim::SimTime, double>> multi_shard_run() {
  sim::ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  sim::ShardedEngine engine(cfg);
  Island a(5, &engine, 0);
  Island b(6, &engine, 1);
  sim::Random random0(7), random1(8);
  net::ClassicalChannel channel(engine.ref(0), random0, engine.ref(1),
                                random1, "chatter",
                                sim::duration::milliseconds(5));
  std::vector<std::pair<sim::SimTime, double>> trace;
  channel.set_receiver(1, [&](std::vector<std::uint8_t>) {
    trace.emplace_back(engine.sim(1).now(), -1.0);
  });
  // Periodic chatter from shard 0 while both islands serve requests.
  std::function<void()> tick = [&] {
    channel.send_from(0, {0xAB});
    if (engine.sim(0).now() < sim::duration::seconds(2)) {
      engine.sim(0).schedule_in(sim::duration::milliseconds(100), tick);
    }
  };
  engine.sim(0).schedule_in(sim::duration::milliseconds(100),
                            [&tick] { tick(); });
  for (int i = 0; i < 20; ++i) {
    a.plane->submit(chain_request(1), kChainRoute);
    b.plane->submit(chain_request(2), kChainRoute);
  }
  engine.run_until(sim::duration::seconds(30));
  for (const auto& d : a.deliveries) trace.push_back(d);
  for (const auto& d : b.deliveries) trace.push_back(d);
  return trace;
}

TEST(ShardedNet, MultiShardSmokeIsDeterministicPerSeed) {
  const auto first = multi_shard_run();
  const auto second = multi_shard_run();
  ASSERT_GT(first.size(), 60u);  // 60 pairs + chatter frames
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace qlink
