#include <gtest/gtest.h>

#include <limits>

#include "net/channel.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"

namespace qlink::net {
namespace {

TEST(ClassicalChannel, DeliversWithDelay) {
  sim::Simulator s;
  sim::Random rnd(1);
  ClassicalChannel chan(s, "c", 100, rnd, 0.0);
  sim::SimTime delivered_at = -1;
  std::vector<std::uint8_t> got;
  chan.set_receiver(1, [&](std::vector<std::uint8_t> b) {
    delivered_at = s.now();
    got = std::move(b);
  });
  chan.send_from(0, {1, 2, 3});
  s.run_all();
  EXPECT_EQ(delivered_at, 100);
  EXPECT_EQ(got, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(ClassicalChannel, Bidirectional) {
  sim::Simulator s;
  sim::Random rnd(2);
  ClassicalChannel chan(s, "c", 50, rnd, 0.0);
  int at0 = 0;
  int at1 = 0;
  chan.set_receiver(0, [&](std::vector<std::uint8_t>) { ++at0; });
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++at1; });
  chan.send_from(0, {9});
  chan.send_from(1, {8});
  s.run_all();
  EXPECT_EQ(at0, 1);
  EXPECT_EQ(at1, 1);
}

TEST(ClassicalChannel, PreservesOrderingPerDirection) {
  sim::Simulator s;
  sim::Random rnd(3);
  ClassicalChannel chan(s, "c", 10, rnd, 0.0);
  std::vector<std::uint8_t> order;
  chan.set_receiver(1, [&](std::vector<std::uint8_t> b) {
    order.push_back(b[0]);
  });
  for (std::uint8_t i = 0; i < 5; ++i) chan.send_from(0, {i});
  s.run_all();
  EXPECT_EQ(order, (std::vector<std::uint8_t>{0, 1, 2, 3, 4}));
}

TEST(ClassicalChannel, LossDropsApproximatelyTheConfiguredFraction) {
  sim::Simulator s;
  sim::Random rnd(4);
  ClassicalChannel chan(s, "c", 1, rnd, 0.25);
  int received = 0;
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++received; });
  const int n = 20000;
  for (int i = 0; i < n; ++i) chan.send_from(0, {0});
  s.run_all();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.75, 0.02);
  EXPECT_EQ(chan.frames_sent(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(chan.frames_dropped() + chan.frames_delivered(),
            static_cast<std::uint64_t>(n));
}

TEST(ClassicalChannel, ZeroLossDeliversEverything) {
  sim::Simulator s;
  sim::Random rnd(5);
  ClassicalChannel chan(s, "c", 1, rnd, 0.0);
  int received = 0;
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++received; });
  for (int i = 0; i < 100; ++i) chan.send_from(0, {0});
  s.run_all();
  EXPECT_EQ(received, 100);
  EXPECT_EQ(chan.frames_dropped(), 0u);
}

TEST(ClassicalChannel, FullLossDropsEverything) {
  sim::Simulator s;
  sim::Random rnd(6);
  ClassicalChannel chan(s, "c", 1, rnd, 1.0);
  int received = 0;
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++received; });
  for (int i = 0; i < 100; ++i) chan.send_from(0, {0});
  s.run_all();
  EXPECT_EQ(received, 0);
}

TEST(ClassicalChannel, UnconnectedEndpointDiscardsSilently) {
  sim::Simulator s;
  sim::Random rnd(7);
  ClassicalChannel chan(s, "c", 1, rnd, 0.0);
  chan.send_from(0, {1});
  EXPECT_NO_THROW(s.run_all());
}

TEST(ClassicalChannel, InvalidEndpointThrows) {
  sim::Simulator s;
  sim::Random rnd(8);
  ClassicalChannel chan(s, "c", 1, rnd, 0.0);
  EXPECT_THROW(chan.send_from(2, {1}), std::invalid_argument);
}

TEST(ClassicalChannel, LossProbabilityAdjustableAtRuntime) {
  sim::Simulator s;
  sim::Random rnd(9);
  ClassicalChannel chan(s, "c", 1, rnd, 0.0);
  int received = 0;
  chan.set_receiver(1, [&](std::vector<std::uint8_t>) { ++received; });
  chan.send_from(0, {0});
  chan.set_loss_probability(1.0);
  chan.send_from(0, {0});
  s.run_all();
  EXPECT_EQ(received, 1);
}

TEST(ClassicalChannel, NegativeDelayThrows) {
  sim::Simulator s;
  sim::Random rnd(10);
  EXPECT_THROW(ClassicalChannel(s, "c", -1, rnd), std::invalid_argument);
  EXPECT_NO_THROW(ClassicalChannel(s, "c", 0, rnd));
  sim::ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  sim::ShardedEngine engine(cfg);
  EXPECT_THROW(ClassicalChannel(engine.ref(0), rnd, engine.ref(1), rnd, "x",
                                -1),
               std::invalid_argument);
}

TEST(ClassicalChannel, LossOutsideUnitIntervalThrows) {
  sim::Simulator s;
  sim::Random rnd(11);
  sim::ShardedEngine::Config cfg;
  cfg.num_shards = 2;
  sim::ShardedEngine engine(cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double p : {-0.1, 1.5, nan}) {
    SCOPED_TRACE(p);
    EXPECT_THROW(ClassicalChannel(s, "c", 1, rnd, p), std::invalid_argument);
    EXPECT_THROW(ClassicalChannel(engine.ref(0), rnd, engine.ref(1), rnd,
                                  "x", 1, p),
                 std::invalid_argument);
    ClassicalChannel chan(s, "c", 1, rnd, 0.5);
    EXPECT_THROW(chan.set_loss_probability(p), std::invalid_argument);
    EXPECT_EQ(chan.loss_probability(), 0.5);  // a rejected set changes nothing
  }
}

}  // namespace
}  // namespace qlink::net
