#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <tuple>
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

// ---------------------------------------------------------------------
// ShardedEngine: handles and the single-shard pass-through
// ---------------------------------------------------------------------

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
}

// ---------------------------------------------------------------------
// ShardedEngine: the merge rule
// ---------------------------------------------------------------------

/// (time, shard, tag) of one executed event.
using Executed = std::tuple<SimTime, std::size_t, int>;

TEST(ShardedEngine, CrossShardSchedulesRunInGlobalTimeThenShardOrder) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 3;
  ShardedEngine engine(cfg);
  std::vector<Executed> runs;
  bool peers_behind = true;  // no clock ever ahead of the running event
  const auto record = [&](std::size_t shard, int tag) {
    const SimTime at = engine.sim(shard).now();
    for (std::size_t i = 0; i < engine.num_shards(); ++i) {
      peers_behind = peers_behind && engine.sim(i).now() <= at;
    }
    runs.emplace_back(at, shard, tag);
  };
  const auto on = [&](std::size_t shard, SimTime at, int tag) {
    engine.sim(shard).schedule_at(at, [&record, shard, tag] {
      record(shard, tag);
    });
  };
  // Scheduled in reverse shard order; the merge still runs time 5 as
  // shard 0, 1, 2.
  on(2, 5, 20);
  engine.sim(2).schedule_at(5, [&] {
    record(2, 21);
    // Zero delay: lands on shard 0 at the running event's own time and
    // runs before shard 2's next time-5 event, since shard 0 < 2.
    on(0, engine.sim(2).now(), 1);
    // Nonzero delay to a lower shard that is idle until then.
    on(1, engine.sim(2).now() + 3, 11);
  });
  on(2, 5, 22);
  on(1, 5, 10);
  on(0, 5, 0);
  on(0, 8, 2);  // ties with the cross-shard event at 8: shard 0 first
  on(2, 1, 23);
  engine.run_until(100);

  const std::vector<Executed> expected{
      {1, 2, 23}, {5, 0, 0}, {5, 1, 10}, {5, 2, 20}, {5, 2, 21},
      {5, 0, 1},  {5, 2, 22}, {8, 0, 2}, {8, 1, 11}};
  EXPECT_EQ(runs, expected);
  EXPECT_TRUE(peers_behind);
  EXPECT_EQ(engine.events_processed(), expected.size());
  for (std::size_t i = 0; i < engine.num_shards(); ++i) {
    EXPECT_EQ(engine.sim(i).now(), 100);
  }
}

TEST(ShardedEngine, QuietStretchRunsExactlyThePendingEventsAndSetsEveryClock) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 3;
  ShardedEngine engine(cfg);
  std::vector<SimTime> fired;
  engine.sim(1).schedule_at(1000000, [&] { fired.push_back(1000000); });
  engine.sim(2).schedule_at(2000000, [&] { fired.push_back(2000000); });
  engine.sim(0).schedule_at(2000001, [&] { fired.push_back(2000001); });
  engine.run_until(2000000);  // events at t run; later ones wait
  EXPECT_EQ(fired, (std::vector<SimTime>{1000000, 2000000}));
  EXPECT_EQ(engine.events_processed(), 2u);
  EXPECT_EQ(engine.now(), 2000000);
  for (std::size_t i = 0; i < engine.num_shards(); ++i) {
    EXPECT_EQ(engine.sim(i).now(), 2000000);
  }
  EXPECT_EQ(engine.sim(0).next_event_time(), 2000001);
}

/// Ping-pong over a 2-shard engine: each delivery schedules the next
/// one on the peer shard, `hops` times, `delay` apart.
std::vector<std::pair<std::size_t, SimTime>> ping_pong(
    ShardedEngine::Parallel parallel, int hops, SimTime delay) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  cfg.parallel = parallel;
  ShardedEngine engine(cfg);

  std::vector<std::pair<std::size_t, SimTime>> trace;
  std::function<void(std::size_t, int)> hop = [&](std::size_t shard,
                                                  int remaining) {
    trace.emplace_back(shard, engine.sim(shard).now());
    if (remaining == 0) return;
    const std::size_t peer = 1 - shard;
    engine.sim(peer).schedule_at(
        engine.sim(shard).now() + delay,
        [&hop, peer, remaining] { hop(peer, remaining - 1); }, "test.hop");
  };
  engine.sim(0).schedule_at(1, [&] { hop(0, hops); }, "test.start");
  engine.run_until(1 + delay * (hops + 1));
  return trace;
}

TEST(ShardedEngine, CrossShardSchedulesRespectDelayAndOrder) {
  const auto trace = ping_pong(ShardedEngine::Parallel::kOff, 6, 10);
  ASSERT_EQ(trace.size(), 7u);
  for (int i = 0; i <= 6; ++i) {
    EXPECT_EQ(trace[i].first, static_cast<std::size_t>(i % 2));
    EXPECT_EQ(trace[i].second, 1 + 10 * i);
  }
}

TEST(ShardedEngine, ParallelModeDoesNotChangePingPongTrace) {
  // Config::parallel is ignored: kAuto runs the same merge as kOff.
  const auto off = ping_pong(ShardedEngine::Parallel::kOff, 40, 7);
  const auto automatic = ping_pong(ShardedEngine::Parallel::kAuto, 40, 7);
  EXPECT_EQ(off, automatic);
}

/// Both shards busy, with cross-shard schedules in both directions,
/// run to 1000 in one call or in 37-tick chunks.
std::vector<std::vector<std::pair<SimTime, int>>> busy_shards(
    SimTime chunk) {
  ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  ShardedEngine engine(cfg);

  std::vector<std::vector<std::pair<SimTime, int>>> trace(2);
  std::vector<std::function<void(int)>> tick(2);
  for (std::size_t s = 0; s < 2; ++s) {
    tick[s] = [&, s](int n) {
      Simulator& sim = engine.sim(s);
      trace[s].emplace_back(sim.now(), n);
      if (n % 3 == 0) {
        const std::size_t peer = 1 - s;
        engine.sim(peer).schedule_at(
            sim.now() + 10,
            [&trace, &engine, peer, n] {
              trace[peer].emplace_back(engine.sim(peer).now(), 1000 + n);
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
  while (engine.now() < 1000) {
    engine.run_until(std::min<SimTime>(1000, engine.now() + chunk));
  }
  return trace;
}

TEST(ShardedEngine, BusyShardsReplayTheSameTraceInAnyChunking) {
  const auto whole = busy_shards(1000);
  const auto chunked = busy_shards(37);
  ASSERT_EQ(whole.size(), chunked.size());
  EXPECT_GT(whole[0].size(), 100u);
  EXPECT_EQ(whole, chunked);
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
