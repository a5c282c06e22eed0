#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/entity.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace qlink::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_processed(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.schedule_at(30, [&] { order.push_back(3); });
  s.schedule_at(10, [&] { order.push_back(1); });
  s.schedule_at(20, [&] { order.push_back(2); });
  s.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, TieBreaksFifoWithinTimestamp) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  s.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ScheduleInIsRelative) {
  Simulator s;
  s.schedule_at(100, [] {});
  s.run_all();
  SimTime fired_at = -1;
  s.schedule_in(50, [&] { fired_at = s.now(); });
  s.run_all();
  EXPECT_EQ(fired_at, 150);
}

TEST(Simulator, RejectsPastEvents) {
  Simulator s;
  s.schedule_at(10, [] {});
  s.run_all();
  EXPECT_THROW(s.schedule_at(5, [] {}), std::invalid_argument);
}

TEST(Simulator, RejectsEmptyFunction) {
  Simulator s;
  EXPECT_THROW(s.schedule_at(1, nullptr), std::invalid_argument);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool ran = false;
  const EventId id = s.schedule_at(10, [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  s.run_all();
  EXPECT_FALSE(ran);
}

TEST(Simulator, CancelTwiceReturnsFalse) {
  Simulator s;
  const EventId id = s.schedule_at(10, [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Simulator, CancelUnknownIdReturnsFalse) {
  Simulator s;
  EXPECT_FALSE(s.cancel(12345));
  EXPECT_FALSE(s.cancel(0));
}

TEST(Simulator, RunUntilAdvancesClockWithoutEvents) {
  Simulator s;
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
}

TEST(Simulator, RunUntilStopsAtBoundaryInclusive) {
  Simulator s;
  int count = 0;
  s.schedule_at(10, [&] { ++count; });
  s.schedule_at(20, [&] { ++count; });
  s.schedule_at(21, [&] { ++count; });
  s.run_until(20);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20);
  s.run_until(21);
  EXPECT_EQ(count, 3);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.schedule_in(10, recurse);
  };
  s.schedule_at(0, recurse);
  s.run_all();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(s.now(), 40);
}

TEST(PeriodicTimer, FiresAtFixedPeriod) {
  Simulator s;
  std::vector<SimTime> ticks;
  PeriodicTimer t(s, 100, [&] { ticks.push_back(s.now()); });
  t.start();
  s.run_until(350);
  ASSERT_EQ(ticks.size(), 4u);  // t = 0, 100, 200, 300
  EXPECT_EQ(ticks[0], 0);
  EXPECT_EQ(ticks[3], 300);
}

TEST(PeriodicTimer, StopHaltsFiring) {
  Simulator s;
  int count = 0;
  PeriodicTimer t(s, 10, [&] { ++count; });
  t.start();
  s.run_until(35);
  t.stop();
  s.run_until(1000);
  EXPECT_EQ(count, 4);
  EXPECT_FALSE(t.running());
}

TEST(PeriodicTimer, CallbackMayStopTimer) {
  Simulator s;
  int count = 0;
  PeriodicTimer t(s, 10, [&] {
    if (++count == 3) t.stop();
  });
  t.start();
  s.run_until(10000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTimer, StartWithOffset) {
  Simulator s;
  std::vector<SimTime> ticks;
  PeriodicTimer t(s, 100, [&] { ticks.push_back(s.now()); });
  t.start(37);
  s.run_until(250);
  ASSERT_GE(ticks.size(), 2u);
  EXPECT_EQ(ticks[0], 37);
  EXPECT_EQ(ticks[1], 137);
}

TEST(Random, DeterministicForSameSeed) {
  Random a(42);
  Random b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Random, DiffersAcrossSeeds) {
  Random a(1);
  Random b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Random, BernoulliEdges) {
  Random r(7);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Random, BernoulliMatchesProbability) {
  Random r(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Random, UniformIntCoversRangeInclusive) {
  Random r(13);
  bool lo = false;
  bool hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(1, 3);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 3);
    lo |= v == 1;
    hi |= v == 3;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Random, DiscreteRespectsWeights) {
  Random r(17);
  const double w[] = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 40000; ++i) ++counts[r.discrete(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.2);
}

TEST(Random, DiscreteRejectsInvalid) {
  Random r(19);
  const double neg[] = {0.5, -0.1};
  EXPECT_THROW(r.discrete(neg), std::invalid_argument);
  const double zero[] = {0.0, 0.0};
  EXPECT_THROW(r.discrete(zero), std::invalid_argument);
}

TEST(Simulator, PendingExcludesCancelledEvents) {
  Simulator s;
  const EventId a = s.schedule_at(10, [] {});
  s.schedule_at(20, [] {});
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_TRUE(s.cancel(a));
  // The cancelled event still occupies a queue slot, but pending() is
  // exact.
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(s.events_processed(), 1u);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator s;
  const EventId a = s.schedule_at(5, [] {});
  s.run_all();
  EXPECT_FALSE(s.cancel(a));
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, CancelBookkeepingStaysBounded) {
  // Regression: cancelled ids used to accumulate in a linearly scanned
  // vector; cancelling after the fact even re-added fired ids forever.
  Simulator s;
  for (int round = 0; round < 1000; ++round) {
    const EventId id = s.schedule_at(round, [] {});
    EXPECT_TRUE(s.cancel(id));
    EXPECT_FALSE(s.cancel(id));
    EXPECT_EQ(s.pending(), 0u);
  }
  s.run_all();
  EXPECT_EQ(s.events_processed(), 0u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, RunUntilDoesNotOvershootPastCancelledHead) {
  // A cancelled event at the queue head inside the window must not let
  // run_until execute a live event beyond the window.
  Simulator s;
  const EventId head = s.schedule_at(10, [] {});
  bool late_ran = false;
  s.schedule_at(100, [&] { late_ran = true; });
  s.cancel(head);
  s.run_until(50);
  EXPECT_FALSE(late_ran);
  EXPECT_EQ(s.now(), 50);
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_TRUE(late_ran);
}

TEST(Simulator, StaleIdOfReusedSlotCancelsNothing) {
  // A fired event's slot is recycled by the next schedule; the old id
  // must not reach the new event.
  Simulator s;
  const EventId fired = s.schedule_at(1, [] {});
  s.run_all();
  bool ran = false;
  const EventId reused = s.schedule_at(2, [&] { ran = true; });
  EXPECT_NE(reused, fired);
  EXPECT_FALSE(s.cancel(fired));
  EXPECT_EQ(s.pending(), 1u);
  s.run_all();
  EXPECT_TRUE(ran);

  // Likewise for a cancelled event once its heap entry has surfaced.
  const EventId cancelled = s.schedule_at(3, [] {});
  EXPECT_TRUE(s.cancel(cancelled));
  s.run_all();
  bool later_ran = false;
  s.schedule_at(4, [&] { later_ran = true; });
  EXPECT_FALSE(s.cancel(cancelled));
  s.run_all();
  EXPECT_TRUE(later_ran);
}

TEST(Simulator, CancelOfZeroFiredOrCancelledIdReturnsFalse) {
  Simulator s;
  EXPECT_FALSE(s.cancel(0));
  const EventId fired = s.schedule_at(1, [] {});
  const EventId twice = s.schedule_at(2, [] {});
  ASSERT_TRUE(s.step());
  EXPECT_FALSE(s.cancel(fired));
  EXPECT_TRUE(s.cancel(twice));
  EXPECT_FALSE(s.cancel(twice));
  EXPECT_FALSE(s.cancel(0));
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_FALSE(s.step());
}

TEST(Simulator, PendingStaysExactThroughChurn) {
  // 10k random schedules, cancels (of live, fired and cancelled ids
  // alike, so recycled slots are probed) and steps against a model of
  // which events are still live.
  Simulator s;
  Random r(17);
  std::vector<EventId> ids;
  std::vector<char> alive;
  std::size_t live = 0;
  for (int op = 0; op < 10000; ++op) {
    const std::int64_t pick = r.uniform_int(0, 9);
    if (pick < 5 || ids.empty()) {
      const std::size_t k = ids.size();
      const SimTime at = s.now() + r.uniform_int(0, 50);
      ids.push_back(s.schedule_at(at, [&alive, &live, k] {
        ASSERT_TRUE(alive[k]);
        alive[k] = 0;
        --live;
      }));
      alive.push_back(1);
      ++live;
    } else if (pick < 8) {
      const auto k = static_cast<std::size_t>(
          r.uniform_int(0, static_cast<std::int64_t>(ids.size()) - 1));
      ASSERT_EQ(s.cancel(ids[k]), alive[k] != 0);
      if (alive[k]) --live;
      alive[k] = 0;
    } else {
      ASSERT_EQ(s.step(), live > 0);
    }
    ASSERT_EQ(s.pending(), live);
  }
  s.run_all();
  EXPECT_EQ(live, 0u);
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Simulator, HeapHighWaterCountsCancelledEntriesAwaitingRemoval) {
  Simulator s;
  const EventId a = s.schedule_at(10, [] {});
  const EventId b = s.schedule_at(20, [] {});
  s.schedule_at(30, [] {});
  EXPECT_TRUE(s.cancel(a));
  EXPECT_TRUE(s.cancel(b));
  // Both cancelled entries still sit in the heap: four deep, two live.
  s.schedule_at(40, [] {});
  EXPECT_EQ(s.pending(), 2u);
  EXPECT_EQ(s.heap_high_water(), 4u);
  s.run_all();
  EXPECT_EQ(s.heap_high_water(), 4u);
  EXPECT_EQ(s.events_processed(), 2u);
}

/// Counts its copies; moves are free.
struct CopyCounter {
  explicit CopyCounter(int* copies, bool* ran) : copies(copies), ran(ran) {}
  CopyCounter(const CopyCounter& other)
      : copies(other.copies), ran(other.ran), payload(other.payload) {
    ++*copies;
  }
  CopyCounter(CopyCounter&&) noexcept = default;
  CopyCounter& operator=(const CopyCounter&) = delete;
  CopyCounter& operator=(CopyCounter&&) = delete;
  void operator()() const { *ran = true; }

  int* copies;
  bool* ran;
  std::vector<std::uint8_t> payload = std::vector<std::uint8_t>(64, 7);
};

TEST(Simulator, ClosureIsNeverCopiedBetweenScheduleAndRun) {
  Simulator s;
  int copies = 0;
  bool ran = false;
  // Fill a few slots first so the closure lands in a recycled one and
  // the heap reorders around it.
  for (int i = 0; i < 8; ++i) s.schedule_at(i, [] {});
  s.run_until(3);
  s.schedule_at(5, CopyCounter(&copies, &ran), "copy.counter");
  s.schedule_at(6, [] {});
  s.run_all();
  EXPECT_TRUE(ran);
  EXPECT_EQ(copies, 0);
}

TEST(Simulator, HandlerMayReuseItsOwnSlot) {
  // The running closure's captures stay valid while it schedules into
  // the slot it was popped from.
  Simulator s;
  std::vector<int> seen;
  const std::vector<int> payload = {1, 2, 3};
  s.schedule_at(1, [&s, &seen, payload] {
    s.schedule_at(2, [&seen] { seen.push_back(0); });
    seen.insert(seen.end(), payload.begin(), payload.end());
  });
  s.run_all();
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3, 0}));
}

}  // namespace
}  // namespace qlink::sim
