#include <gtest/gtest.h>

#include <stdexcept>

#include "hw/herald_model.hpp"
#include "hw/nv_device.hpp"
#include "net/channel.hpp"
#include "proto/mhp.hpp"
#include "quantum/registry.hpp"
#include "sim/simulator.hpp"

namespace qlink::proto {
namespace {

using net::AbsoluteQueueId;
using net::MhpError;

/// Harness wiring two NodeMhp instances and a station with scriptable
/// poll handlers (Protocol 1 in isolation, no EGP).
class MhpTest : public ::testing::Test {
 protected:
  MhpTest()
      : registry_(random_),
        scenario_(hw::ScenarioParams::lab()),
        model_(scenario_.herald),
        dev_a_(sim_, "nv-a", scenario_.nv, registry_),
        dev_b_(sim_, "nv-b", scenario_.nv, registry_),
        chan_a_(sim_, "a-h", scenario_.delay_a_to_station, random_, 0.0),
        chan_b_(sim_, "b-h", scenario_.delay_b_to_station, random_, 0.0),
        clock_(sim_, scenario_.mhp_cycle),
        mhp_a_(clock_, "mhp-a", 0, dev_a_, chan_a_, 0),
        mhp_b_(clock_, "mhp-b", 1, dev_b_, chan_b_, 0),
        station_(sim_, "h", model_, random_, chan_a_, 1, chan_b_, 1,
                 scenario_.mhp_cycle) {
    mhp_a_.set_result_handler(
        [this](const MhpResult& r) { results_a_.push_back(r); });
    mhp_b_.set_result_handler(
        [this](const MhpResult& r) { results_b_.push_back(r); });
  }

  /// Make both nodes attempt `n` times for the same request id.
  void attempt_both(int n, double alpha = 0.3) {
    auto mk = [&](int* budget) {
      return [budget, alpha]() mutable {
        PollResponse r;
        if (*budget <= 0) return r;
        --*budget;
        r.attempt = true;
        r.aid = AbsoluteQueueId{0, 7};
        r.measure_directly = true;
        r.basis = quantum::gates::Basis::kZ;
        r.alpha = alpha;
        return r;
      };
    };
    budget_a_ = n;
    budget_b_ = n;
    mhp_a_.set_poll_handler(mk(&budget_a_));
    mhp_b_.set_poll_handler(mk(&budget_b_));
    mhp_a_.start();
    mhp_b_.start();
  }

  sim::Simulator sim_;
  sim::Random random_{5};
  quantum::QuantumRegistry registry_;
  hw::ScenarioParams scenario_;
  hw::HeraldModel model_;
  hw::NvDevice dev_a_;
  hw::NvDevice dev_b_;
  net::ClassicalChannel chan_a_;
  net::ClassicalChannel chan_b_;
  CycleClock clock_;
  NodeMhp mhp_a_;
  NodeMhp mhp_b_;
  MidpointStation station_;
  std::vector<MhpResult> results_a_;
  std::vector<MhpResult> results_b_;
  int budget_a_ = 0;
  int budget_b_ = 0;
};

TEST_F(MhpTest, NoPollHandlerNoAttempts) {
  mhp_a_.start();
  sim_.run_until(sim::duration::milliseconds(1));
  EXPECT_EQ(mhp_a_.attempts_made(), 0u);
}

TEST_F(MhpTest, PollNoMeansNoGen) {
  mhp_a_.set_poll_handler([] { return PollResponse{}; });
  mhp_a_.start();
  sim_.run_until(sim::duration::milliseconds(1));
  EXPECT_EQ(mhp_a_.attempts_made(), 0u);
  EXPECT_EQ(station_.gen_frames(), 0u);
}

TEST_F(MhpTest, MatchedAttemptsGetRepliesAtBothNodes) {
  attempt_both(100);
  sim_.run_until(sim::duration::milliseconds(2));
  EXPECT_EQ(mhp_a_.attempts_made(), 100u);
  EXPECT_EQ(station_.gen_frames(), 200u);
  EXPECT_EQ(results_a_.size(), 100u);
  EXPECT_EQ(results_b_.size(), 100u);
  EXPECT_EQ(station_.mismatches(), 0u);
}

TEST_F(MhpTest, RepliesEchoTheAttemptId) {
  attempt_both(5);
  sim_.run_until(sim::duration::milliseconds(1));
  for (const auto& r : results_a_) {
    EXPECT_EQ(r.reply.aid_receiver, (AbsoluteQueueId{0, 7}));
    EXPECT_EQ(r.reply.aid_peer, (AbsoluteQueueId{0, 7}));
    EXPECT_EQ(r.reply.error, MhpError::kNone);
  }
}

TEST_F(MhpTest, SuccessRateTracksModel) {
  const double alpha = 0.4;
  attempt_both(200000, alpha);
  sim_.run_until(sim::duration::seconds(2.5));
  ASSERT_GT(results_a_.size(), 100000u);
  std::uint64_t successes = 0;
  for (const auto& r : results_a_) {
    if (r.reply.outcome != 0) ++successes;
  }
  const double observed =
      static_cast<double>(successes) / static_cast<double>(results_a_.size());
  const double expected = model_.distribution(alpha, alpha).p_success();
  EXPECT_NEAR(observed, expected, expected * 0.25);
  EXPECT_EQ(station_.successes(), successes);
}

TEST_F(MhpTest, SequenceNumbersIncreaseMonotonically) {
  attempt_both(100000, 0.5);
  sim_.run_until(sim::duration::seconds(1.2));
  std::uint32_t last = 0;
  for (const auto& r : results_a_) {
    if (r.reply.outcome != 0) {
      EXPECT_EQ(r.reply.seq_mhp, last + 1);
      last = r.reply.seq_mhp;
    }
  }
  EXPECT_GT(last, 0u);
}

TEST_F(MhpTest, OneSidedAttemptYieldsNoMessageOther) {
  budget_a_ = 3;
  mhp_a_.set_poll_handler([this] {
    PollResponse r;
    if (budget_a_-- <= 0) return r;
    r.attempt = true;
    r.aid = AbsoluteQueueId{0, 1};
    r.measure_directly = true;
    r.alpha = 0.3;
    return r;
  });
  mhp_b_.set_poll_handler([] { return PollResponse{}; });
  mhp_a_.start();
  mhp_b_.start();
  sim_.run_until(sim::duration::milliseconds(5));
  ASSERT_GE(results_a_.size(), 3u);
  for (const auto& r : results_a_) {
    EXPECT_EQ(r.reply.error, MhpError::kNoMessageOther);
  }
  EXPECT_EQ(results_b_.size(), 0u);
}

TEST_F(MhpTest, MismatchedIdsYieldQueueMismatch) {
  auto mk = [&](std::uint32_t qseq) {
    return [qseq]() {
      PollResponse r;
      r.attempt = true;
      r.aid = AbsoluteQueueId{0, qseq};
      r.measure_directly = true;
      r.alpha = 0.3;
      return r;
    };
  };
  mhp_a_.set_poll_handler(mk(1));
  mhp_b_.set_poll_handler(mk(2));
  mhp_a_.start();
  mhp_b_.start();
  sim_.run_until(sim::duration::microseconds(200));
  ASSERT_FALSE(results_a_.empty());
  ASSERT_FALSE(results_b_.empty());
  EXPECT_EQ(results_a_.front().reply.error, MhpError::kQueueMismatch);
  EXPECT_EQ(results_b_.front().reply.error, MhpError::kQueueMismatch);
  EXPECT_EQ(results_a_.front().reply.aid_peer, (AbsoluteQueueId{0, 2}));
  EXPECT_GT(station_.mismatches(), 0u);
}

TEST_F(MhpTest, MTypeSuccessCarriesOutcomes) {
  station_.set_measure_sampler([](int, quantum::gates::Basis,
                                  quantum::gates::Basis, double, double) {
    return std::pair<int, int>{1, 0};
  });
  attempt_both(100000, 0.5);
  sim_.run_until(sim::duration::seconds(1.2));
  bool saw_success = false;
  for (std::size_t i = 0; i < results_a_.size(); ++i) {
    const auto& ra = results_a_[i].reply;
    if (ra.outcome != 0) {
      saw_success = true;
      EXPECT_EQ(ra.m_outcome, 1);
      EXPECT_EQ(ra.m_outcome_peer, 0);
    }
  }
  EXPECT_TRUE(saw_success);
  // B's replies carry the mirrored outcomes.
  for (const auto& rb : results_b_) {
    if (rb.reply.outcome != 0) {
      EXPECT_EQ(rb.reply.m_outcome, 0);
      EXPECT_EQ(rb.reply.m_outcome_peer, 1);
    }
  }
}

TEST_F(MhpTest, KTypeSuccessTriggersInstall) {
  int installs = 0;
  station_.set_install_handler(
      [&](int outcome, std::uint64_t, double, double) {
        EXPECT_TRUE(outcome == 1 || outcome == 2);
        ++installs;
      });
  auto mk = [] {
    PollResponse r;
    r.attempt = true;
    r.aid = AbsoluteQueueId{0, 3};
    r.measure_directly = false;
    r.alpha = 0.5;
    return r;
  };
  mhp_a_.set_poll_handler(mk);
  mhp_b_.set_poll_handler(mk);
  mhp_a_.start();
  mhp_b_.start();
  sim_.run_until(sim::duration::seconds(0.6));
  EXPECT_GT(installs, 0);
  EXPECT_EQ(static_cast<std::uint32_t>(installs), station_.successes());
}

TEST_F(MhpTest, BusyDeviceSkipsCycles) {
  dev_a_.occupy_for(sim::duration::milliseconds(1));
  attempt_both(1000000);
  sim_.run_until(sim::duration::milliseconds(1));
  // A was busy the whole time; every B GEN is one-sided.
  EXPECT_EQ(mhp_a_.attempts_made(), 0u);
  EXPECT_GT(mhp_b_.attempts_made(), 0u);
}

TEST_F(MhpTest, CurrentCycleAdvancesWithClock) {
  EXPECT_EQ(mhp_a_.current_cycle(), 0u);
  sim_.run_until(scenario_.mhp_cycle * 10);
  EXPECT_EQ(mhp_a_.current_cycle(), 10u);
}

TEST_F(MhpTest, CorruptFramesAreIgnored) {
  // Inject garbage towards the station and towards the node.
  chan_a_.send_from(0, {1, 2, 3, 4, 5, 6, 7});
  chan_a_.send_from(1, {9, 9, 9, 9, 9, 9});
  EXPECT_NO_THROW(sim_.run_all());
  EXPECT_EQ(station_.gen_frames(), 0u);
  EXPECT_EQ(mhp_a_.replies_seen(), 0u);
}

TEST_F(MhpTest, MembersShareOneCycleEvent) {
  sim_.set_telemetry(true);
  mhp_a_.set_poll_handler([] { return PollResponse{}; });
  mhp_b_.set_poll_handler([] { return PollResponse{}; });
  mhp_a_.start();
  mhp_b_.start();
  sim_.run_until(scenario_.mhp_cycle * 100);
  ASSERT_EQ(sim_.label_stats().size(), 1u);
  EXPECT_EQ(sim_.label_stats().front().label, "mhp.cycle");
  EXPECT_EQ(sim_.label_stats().front().count, 101u);  // cycles 0..100
}

TEST_F(MhpTest, IdlePollSleepsUntilWoken) {
  int polls = 0;
  mhp_a_.set_poll_handler([&polls] {
    ++polls;
    PollResponse r;
    r.idle = true;
    return r;
  });
  mhp_a_.start();
  sim_.run_until(scenario_.mhp_cycle * 100);
  EXPECT_EQ(polls, 1);
  EXPECT_TRUE(mhp_a_.dormant());
  // Woken, it polls at the next cycle, hears idle again and sleeps.
  mhp_a_.wake();
  EXPECT_FALSE(mhp_a_.dormant());
  sim_.run_until(scenario_.mhp_cycle * 200);
  EXPECT_EQ(polls, 2);
  EXPECT_TRUE(mhp_a_.dormant());
}

TEST_F(MhpTest, StartingOffTheClocksPhaseThrows) {
  mhp_a_.start();
  sim_.run_until(scenario_.mhp_cycle / 2);
  EXPECT_THROW(mhp_b_.start(), std::logic_error);
  // A cycle boundary whose tick has already run is off phase too: the
  // member's first cycle could no longer be its start time.
  sim_.run_until(scenario_.mhp_cycle);
  EXPECT_THROW(mhp_b_.start(), std::logic_error);
}

}  // namespace
}  // namespace qlink::proto
