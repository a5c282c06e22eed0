#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/sharded_engine.hpp"

namespace qlink::sim {
namespace {

// ---------------------------------------------------------------------
// ShardAssignment
// ---------------------------------------------------------------------

TEST(ShardAssignment, BlocksAreContiguousAndBalanced) {
  const auto a = ShardAssignment::blocks(1024, 8);
  EXPECT_EQ(a.num_shards, 8u);
  EXPECT_EQ(a.shard(0), 0u);
  EXPECT_EQ(a.shard(127), 0u);
  EXPECT_EQ(a.shard(128), 1u);
  EXPECT_EQ(a.shard(1023), 7u);
  std::uint32_t prev = 0;
  for (std::uint32_t n = 0; n < 1024; ++n) {
    EXPECT_GE(a.shard(n), prev);  // monotone: blocks are contiguous
    prev = a.shard(n);
  }
  EXPECT_THROW(ShardAssignment::blocks(4, 0), std::invalid_argument);
  EXPECT_THROW(ShardAssignment::blocks(4, 5), std::invalid_argument);
}

TEST(ShardAssignment, ValidateRejectsCrossShardQuantumEdge) {
  const auto a = ShardAssignment::blocks(8, 2);
  a.validate_intra_shard({{0, 1}, {4, 7}});
  EXPECT_THROW(a.validate_intra_shard({{3, 4}}), std::invalid_argument);
  const auto single = ShardAssignment::single(8);
  single.validate_intra_shard({{0, 7}});
}

// ---------------------------------------------------------------------
// ShardedEngine: wiring validation
// ---------------------------------------------------------------------

TEST(ShardedEngine, ConnectAndPostValidate) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  ShardedEngine engine(cfg);
  EXPECT_THROW(engine.connect(0, 0, 10), std::invalid_argument);
  EXPECT_THROW(engine.connect(0, 2, 10), std::out_of_range);
  EXPECT_THROW(engine.connect(0, 1, ShardedEngine::kMinLookahead - 1),
               std::invalid_argument);
  // Posting on an unconnected pair is a wiring bug.
  EXPECT_THROW(engine.post(0, 1, 10, [] {}), std::logic_error);

  engine.connect(0, 1, 10);
  EXPECT_EQ(engine.lookahead(0, 1), 10);
  EXPECT_EQ(engine.lookahead(1, 0), 0);  // directional
  engine.connect(0, 1, 5);  // repeat keeps the tightest delay
  EXPECT_EQ(engine.lookahead(0, 1), 5);

  // A post under the lookahead floor would break conservatism.
  EXPECT_THROW(engine.post(0, 1, 4, [] {}), std::invalid_argument);
  engine.post(0, 1, 5, [] {});
  EXPECT_EQ(engine.stats().posted, 1u);
}

TEST(ShardedEngine, RefBindsShardAndRejectsOutOfRange) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  ShardedEngine engine(cfg);
  EngineRef r1 = engine.ref(1);
  EXPECT_TRUE(static_cast<bool>(r1));
  EXPECT_EQ(&r1.sim(), &engine.sim(1));
  EXPECT_THROW(engine.ref(2), std::out_of_range);
  EngineRef unbound;
  EXPECT_FALSE(static_cast<bool>(unbound));
  EXPECT_THROW(unbound.sim(), std::logic_error);
}

// ---------------------------------------------------------------------
// ShardedEngine: single-shard pass-through
// ---------------------------------------------------------------------

TEST(ShardedEngine, SingleShardDelegatesToSimulator) {
  ShardedEngine engine;  // default: one shard
  EXPECT_EQ(engine.num_shards(), 1u);
  std::vector<SimTime> fired;
  engine.sim(0).schedule_at(10, [&] { fired.push_back(10); });
  engine.sim(0).schedule_at(30, [&] { fired.push_back(30); });
  engine.run_until(20);
  EXPECT_EQ(fired, std::vector<SimTime>{10});
  EXPECT_EQ(engine.now(), 20);
  engine.run_for(10);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 30}));
  EXPECT_EQ(engine.events_processed(), 2u);
  // Pass-through: no barrier rounds were needed.
  EXPECT_EQ(engine.stats().rounds, 0u);
}

// ---------------------------------------------------------------------
// ShardedEngine: cross-shard rounds
// ---------------------------------------------------------------------

/// Ping-pong workload over a 2-shard engine: each delivery posts the
/// next one back, `hops` times, with lookahead-respecting delays.
std::vector<std::pair<std::size_t, SimTime>> ping_pong(
    ShardedEngine::Parallel parallel, int hops, SimTime delay) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  cfg.parallel = parallel;
  ShardedEngine engine(cfg);
  engine.connect(0, 1, delay);
  engine.connect(1, 0, delay);

  std::vector<std::pair<std::size_t, SimTime>> trace;
  std::function<void(std::size_t, int)> hop = [&](std::size_t shard,
                                                  int remaining) {
    trace.emplace_back(shard, engine.sim(shard).now());
    if (remaining == 0) return;
    const std::size_t peer = 1 - shard;
    engine.post(shard, peer, engine.sim(shard).now() + delay,
                [&hop, peer, remaining] { hop(peer, remaining - 1); },
                "test.hop");
  };
  engine.sim(0).schedule_at(1, [&] { hop(0, hops); }, "test.start");
  engine.run_until(1 + delay * (hops + 1));
  return trace;
}

TEST(ShardedEngine, CrossShardPostsRespectDelayAndOrder) {
  const auto trace = ping_pong(ShardedEngine::Parallel::kOff, 6, 10);
  ASSERT_EQ(trace.size(), 7u);
  for (int i = 0; i <= 6; ++i) {
    EXPECT_EQ(trace[i].first, static_cast<std::size_t>(i % 2));
    EXPECT_EQ(trace[i].second, 1 + 10 * i);
  }
}

TEST(ShardedEngine, ParallelModeDoesNotChangePingPongTrace) {
  // Config::parallel is ignored: kAuto runs the shards in shard order
  // on the calling thread, exactly as kOff does.
  const auto off = ping_pong(ShardedEngine::Parallel::kOff, 40, 7);
  const auto automatic = ping_pong(ShardedEngine::Parallel::kAuto, 40, 7);
  EXPECT_EQ(off, automatic);
}

/// Both shards busy every round, with cross-posts in both directions.
/// Handlers write only their own shard's trace; the other shard sees a
/// post only after the barrier drains it.
std::vector<std::vector<std::pair<SimTime, int>>> busy_shards(
    ShardedEngine::Parallel parallel) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  cfg.parallel = parallel;
  ShardedEngine engine(cfg);
  engine.connect(0, 1, 10);
  engine.connect(1, 0, 10);

  std::vector<std::vector<std::pair<SimTime, int>>> trace(2);
  std::vector<std::function<void(int)>> tick(2);
  for (std::size_t s = 0; s < 2; ++s) {
    tick[s] = [&, s](int n) {
      Simulator& sim = engine.sim(s);
      trace[s].emplace_back(sim.now(), n);
      if (n % 3 == 0) {
        const std::size_t peer = 1 - s;
        engine.post(s, peer, sim.now() + 10,
                    [&trace, &engine, peer, n] {
                      trace[peer].emplace_back(engine.sim(peer).now(),
                                               1000 + n);
                    },
                    "test.cross");
      }
      if (n < 100) {
        sim.schedule_at(sim.now() + 5, [&tick, s, n] { tick[s](n + 1); },
                        "test.tick");
      }
    };
    engine.sim(s).schedule_at(1 + static_cast<SimTime>(s),
                              [&tick, s] { tick[s](0); }, "test.tick");
  }
  engine.run_until(1000);
  return trace;
}

TEST(ShardedEngine, BusyShardsReplayTheSameTraceInEveryMode) {
  const auto off = busy_shards(ShardedEngine::Parallel::kOff);
  const auto automatic = busy_shards(ShardedEngine::Parallel::kAuto);
  ASSERT_EQ(off.size(), automatic.size());
  EXPECT_GT(off[0].size(), 100u);
  EXPECT_EQ(off, automatic);
}

TEST(ShardedEngine, IdleJumpFastForwardsQuietStretches) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  cfg.parallel = ShardedEngine::Parallel::kOff;
  ShardedEngine engine(cfg);
  engine.connect(0, 1, 2);
  engine.connect(1, 0, 2);
  std::vector<SimTime> fired;
  // One event far in the future: stepping lookahead-sized rounds to
  // reach it would take ~500k rounds; the idle jump takes O(1).
  engine.sim(1).schedule_at(1000000, [&] { fired.push_back(1000000); });
  engine.run_until(2000000);
  EXPECT_EQ(fired, std::vector<SimTime>{1000000});
  EXPECT_EQ(engine.now(), 2000000);
  const auto stats = engine.stats();
  EXPECT_GT(stats.idle_jumps, 0u);
  EXPECT_LT(stats.rounds, 100u);
}

/// One shard-0 event posts a 2,500-event burst in one round: every post
/// is delivered, FIFO, and no round runs on threads.
std::vector<int> burst(ShardedEngine::Parallel mode) {
  constexpr int kBurst = 2500;
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  cfg.parallel = mode;
  ShardedEngine engine(cfg);
  engine.connect(0, 1, 2);
  engine.connect(1, 0, 2);
  std::vector<int> got;
  engine.sim(0).schedule_at(1, [&] {
    for (int i = 0; i < kBurst; ++i) {
      engine.post(0, 1, 10 + i / 100, [&got, i] { got.push_back(i); });
    }
  });
  // Keep shard 1 busy in the same round as shard 0's burst.
  engine.sim(1).schedule_at(1, [] {});
  engine.run_until(100);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.posted, static_cast<std::uint64_t>(kBurst));
  EXPECT_EQ(stats.drained, stats.posted);
  EXPECT_EQ(stats.ring_overflows, 0u);
  EXPECT_EQ(stats.parallel_rounds, 0u);
  return got;
}

TEST(ShardedEngine, BurstPostsKeepFifoInEveryMode) {
  const auto off = burst(ShardedEngine::Parallel::kOff);
  ASSERT_EQ(off.size(), 2500u);
  for (int i = 0; i < 2500; ++i) EXPECT_EQ(off[i], i);
  EXPECT_EQ(burst(ShardedEngine::Parallel::kAuto), off);
}

/// Shards 0 and 2 post to shard 1 for the same instant within one
/// round; shard 2 posts first in simulated time. Returns the order in
/// which shard 1 runs them.
std::vector<int> same_instant_posts(ShardedEngine::Parallel mode) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 3;
  cfg.parallel = mode;
  ShardedEngine engine(cfg);
  for (std::size_t from = 0; from < 3; ++from) {
    for (std::size_t to = 0; to < 3; ++to) {
      if (from != to) engine.connect(from, to, 50);
    }
  }
  std::vector<int> got;
  const auto post_pair = [&](std::size_t from) {
    for (int k = 0; k < 2; ++k) {
      const int tag = static_cast<int>(from) * 10 + k;
      engine.post(from, 1, 100, [&got, tag] { got.push_back(tag); });
    }
  };
  engine.sim(2).schedule_at(1, [&] { post_pair(2); });
  engine.sim(0).schedule_at(2, [&] { post_pair(0); });
  engine.sim(1).schedule_at(2, [] {});
  engine.run_until(200);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.posted, 4u);  // summed over both couplings
  EXPECT_EQ(stats.drained, 4u);
  return got;
}

TEST(ShardedEngine, DrainOrdersOutboxesBySourceShard) {
  // Delivery follows (from, to) order, FIFO within an outbox — not the
  // simulated order in which the shards posted.
  const std::vector<int> expected{0, 1, 20, 21};
  EXPECT_EQ(same_instant_posts(ShardedEngine::Parallel::kOff), expected);
  EXPECT_EQ(same_instant_posts(ShardedEngine::Parallel::kAuto), expected);
}

// ---------------------------------------------------------------------
// Merged telemetry
// ---------------------------------------------------------------------

TEST(ShardedEngine, TelemetryMergesAcrossShards) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  cfg.parallel = ShardedEngine::Parallel::kOff;
  ShardedEngine engine(cfg);
  engine.set_telemetry(true);
  engine.sim(0).schedule_at(1, [] {}, "shared.label");
  engine.sim(1).schedule_at(1, [] {}, "shared.label");
  engine.sim(1).schedule_at(2, [] {}, "only.one");
  engine.run_until(10);
  EXPECT_EQ(engine.events_processed(), 3u);
  const auto stats = engine.label_stats();
  ASSERT_EQ(stats.size(), 2u);  // sorted by label
  EXPECT_EQ(stats[0].label, "only.one");
  EXPECT_EQ(stats[0].count, 1u);
  EXPECT_EQ(stats[1].label, "shared.label");
  EXPECT_EQ(stats[1].count, 2u);
}

// ---------------------------------------------------------------------
// Simulator seam the engine leans on
// ---------------------------------------------------------------------

TEST(Simulator, NextEventTimeTracksQueue) {
  Simulator sim;
  EXPECT_EQ(sim.next_event_time(), Simulator::kNoEventTime);
  sim.schedule_at(42, [] {});
  sim.schedule_at(17, [] {});
  EXPECT_EQ(sim.next_event_time(), 17);
  sim.run_until(20);
  EXPECT_EQ(sim.next_event_time(), 42);
  sim.run_until(50);
  EXPECT_EQ(sim.next_event_time(), Simulator::kNoEventTime);
}

}  // namespace
}  // namespace qlink::sim
