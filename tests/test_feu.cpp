#include <gtest/gtest.h>

#include "core/feu.hpp"
#include "hw/herald_model.hpp"
#include "hw/nv_params.hpp"
#include "sim/random.hpp"

namespace qlink::core {
namespace {

using quantum::gates::Basis;

class FeuTest : public ::testing::Test {
 protected:
  FeuTest()
      : lab_(hw::ScenarioParams::lab()),
        ql_(hw::ScenarioParams::ql2020()),
        lab_model_(lab_.herald),
        ql_model_(ql_.herald),
        lab_feu_(lab_model_, lab_),
        ql_feu_(ql_model_, ql_) {}

  hw::ScenarioParams lab_;
  hw::ScenarioParams ql_;
  hw::HeraldModel lab_model_;
  hw::HeraldModel ql_model_;
  FidelityEstimationUnit lab_feu_;
  FidelityEstimationUnit ql_feu_;
};

TEST_F(FeuTest, AdviceMeetsRequestedFidelity) {
  for (double fmin : {0.5, 0.6, 0.64, 0.7}) {
    const auto a = lab_feu_.advise(fmin, RequestType::kCreateMeasure);
    ASSERT_TRUE(a.feasible) << fmin;
    EXPECT_GE(a.estimated_fidelity, fmin - 1e-6);
    EXPECT_GT(a.alpha, 0.0);
    EXPECT_LE(a.alpha, 0.5);
  }
}

TEST_F(FeuTest, HigherFidelityMeansSmallerAlpha) {
  const auto lo = lab_feu_.advise(0.55, RequestType::kCreateMeasure);
  const auto hi = lab_feu_.advise(0.75, RequestType::kCreateMeasure);
  ASSERT_TRUE(lo.feasible);
  ASSERT_TRUE(hi.feasible);
  EXPECT_GT(lo.alpha, hi.alpha);
  EXPECT_LT(lo.expected_time_per_pair, hi.expected_time_per_pair);
}

TEST_F(FeuTest, UnreachableFidelityIsInfeasible) {
  const auto a = lab_feu_.advise(0.99, RequestType::kCreateKeep);
  EXPECT_FALSE(a.feasible);
}

TEST_F(FeuTest, DeliveredEstimatesSitBelowHeraldedFidelity) {
  // Both request types pay a delivery penalty on top of the heralded
  // state: K the move-to-memory gates (and REPLY wait), M the asymmetric
  // readout errors of Eq. 23.
  const double alpha = 0.2;
  const auto& dist = lab_model_.distribution(alpha, alpha);
  const double heralded =
      (dist.p_psi_plus * dist.fidelity_plus +
       dist.p_psi_minus * dist.fidelity_minus) /
      dist.p_success();
  const double k =
      lab_feu_.estimate_delivered_fidelity(alpha, RequestType::kCreateKeep);
  const double m = lab_feu_.estimate_delivered_fidelity(
      alpha, RequestType::kCreateMeasure);
  EXPECT_LT(k, heralded);
  EXPECT_LT(m, heralded);
  // The M penalty is dominated by readout: dF = e_eff (3/2 - 2(1-F)),
  // with e_eff ~ 2 * 0.0275 and F the heralded fidelity.
  const double e_eff = 2 * 0.0275 - 2 * 0.0275 * 0.0275;
  EXPECT_GT(heralded - m, 0.5 * e_eff);
  EXPECT_LT(heralded - m, 1.5 * e_eff);
}

TEST_F(FeuTest, Ql2020WaitsDegradeFidelityFurther) {
  const double alpha = 0.2;
  EXPECT_LT(
      ql_feu_.estimate_delivered_fidelity(alpha, RequestType::kCreateKeep),
      lab_feu_.estimate_delivered_fidelity(alpha, RequestType::kCreateKeep));
}

TEST_F(FeuTest, KAttemptPeriodReflectsRoundTrip) {
  // Lab: round trip ~ 10 ns -> one cycle. QL2020: ~145 us -> ~15 cycles.
  EXPECT_LE(lab_feu_.k_attempt_period_cycles(), 2u);
  EXPECT_GE(ql_feu_.k_attempt_period_cycles(), 12u);
  EXPECT_LE(ql_feu_.k_attempt_period_cycles(), 20u);
}

TEST_F(FeuTest, ExpectedTimeScalesInverselyWithSuccess) {
  const auto a = lab_feu_.advise(0.6, RequestType::kCreateMeasure);
  const double p =
      lab_model_.distribution(a.alpha, a.alpha).p_success();
  const double cycles = static_cast<double>(a.expected_time_per_pair) /
                        static_cast<double>(lab_.mhp_cycle);
  EXPECT_NEAR(cycles, 1.0 / p, 1.0 / p * 0.05);
}

TEST_F(FeuTest, KExpectedTimeIncludesAttemptPeriodAndOverhead) {
  const auto m = ql_feu_.advise(0.6, RequestType::kCreateMeasure);
  const auto k = ql_feu_.advise(0.6, RequestType::kCreateKeep);
  ASSERT_TRUE(m.feasible);
  ASSERT_TRUE(k.feasible);
  // K pays the REPLY wait: an order of magnitude slower in QL2020.
  EXPECT_GT(k.expected_time_per_pair, 8 * m.expected_time_per_pair);
}

TEST_F(FeuTest, AdviceIsCached) {
  const auto a1 = lab_feu_.advise(0.64, RequestType::kCreateKeep);
  const auto a2 = lab_feu_.advise(0.64, RequestType::kCreateKeep);
  EXPECT_EQ(a1.alpha, a2.alpha);
  EXPECT_EQ(a1.est_cycles_per_pair, a2.est_cycles_per_pair);
}

TEST_F(FeuTest, GoodnessFallsBackToModelEstimate) {
  const double g = lab_feu_.goodness(0.1, RequestType::kCreateMeasure);
  EXPECT_NEAR(g, lab_feu_.estimate_delivered_fidelity(
                     0.1, RequestType::kCreateMeasure),
              1e-12);
}

TEST_F(FeuTest, TestRoundsEstimateQber) {
  // Feed perfectly anti-correlated Z outcomes for Psi+ (which are ideal:
  // Psi+ is anti-correlated in Z), so QBER_Z = 0; then X errors.
  for (int i = 0; i < 100; ++i) {
    lab_feu_.record_test_round(Basis::kZ, 0, 1, 1);
    lab_feu_.record_test_round(Basis::kY, 0, 0, 1);
  }
  EXPECT_EQ(lab_feu_.measured_qber(Basis::kZ), 0.0);
  EXPECT_EQ(lab_feu_.measured_qber(Basis::kY), 0.0);
  EXPECT_FALSE(lab_feu_.measured_qber(Basis::kX).has_value());
  EXPECT_FALSE(lab_feu_.estimated_fidelity_from_tests().has_value());

  // 20% X-basis errors: for Psi+ X outcomes should be equal.
  for (int i = 0; i < 80; ++i) lab_feu_.record_test_round(Basis::kX, 1, 1, 1);
  for (int i = 0; i < 20; ++i) lab_feu_.record_test_round(Basis::kX, 0, 1, 1);
  ASSERT_TRUE(lab_feu_.measured_qber(Basis::kX).has_value());
  EXPECT_NEAR(*lab_feu_.measured_qber(Basis::kX), 0.2, 1e-12);
  ASSERT_TRUE(lab_feu_.estimated_fidelity_from_tests().has_value());
  // F = 1 - (0.2 + 0 + 0)/2 = 0.9.
  EXPECT_NEAR(*lab_feu_.estimated_fidelity_from_tests(), 0.9, 1e-12);
}

TEST_F(FeuTest, TestRoundsRespectHeraldedState) {
  // For Psi- the Z outcomes must differ; equal outcomes are errors.
  lab_feu_.record_test_round(Basis::kZ, 0, 0, 2);
  EXPECT_NEAR(*lab_feu_.measured_qber(Basis::kZ), 1.0, 1e-12);
}

TEST_F(FeuTest, SlidingWindowForgets) {
  lab_feu_.set_window(10);
  for (int i = 0; i < 10; ++i) {
    lab_feu_.record_test_round(Basis::kZ, 0, 0, 1);  // errors (Psi+, Z)
  }
  EXPECT_NEAR(*lab_feu_.measured_qber(Basis::kZ), 1.0, 1e-12);
  for (int i = 0; i < 10; ++i) {
    lab_feu_.record_test_round(Basis::kZ, 0, 1, 1);  // ideal
  }
  EXPECT_NEAR(*lab_feu_.measured_qber(Basis::kZ), 0.0, 1e-12);
}

TEST_F(FeuTest, WindowSamplesCountEachBasisUpToTheWindow) {
  lab_feu_.set_window(10);
  EXPECT_EQ(lab_feu_.window_samples(Basis::kX), 0u);
  for (int i = 0; i < 4; ++i) lab_feu_.record_test_round(Basis::kX, 0, 0, 1);
  for (int i = 0; i < 15; ++i) lab_feu_.record_test_round(Basis::kZ, 0, 1, 1);
  EXPECT_EQ(lab_feu_.window_samples(Basis::kX), 4u);
  EXPECT_EQ(lab_feu_.window_samples(Basis::kY), 0u);
  EXPECT_EQ(lab_feu_.window_samples(Basis::kZ), 10u);  // window-capped
  EXPECT_EQ(lab_feu_.test_rounds_recorded(), 19u);     // all, uncapped
}

TEST_F(FeuTest, GoodnessPrefersTestData) {
  for (Basis b : {Basis::kX, Basis::kY, Basis::kZ}) {
    for (int i = 0; i < 50; ++i) {
      const bool ideal_equal = b != Basis::kZ;  // Psi+ correlations
      lab_feu_.record_test_round(b, 0, ideal_equal ? 0 : 1, 1);
    }
  }
  // Perfect test data -> goodness = 1 regardless of the model estimate.
  EXPECT_NEAR(lab_feu_.goodness(0.3, RequestType::kCreateKeep), 1.0, 1e-12);
}

}  // namespace
}  // namespace qlink::core
