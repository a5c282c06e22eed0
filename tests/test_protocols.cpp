#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "quantum/channels.hpp"
#include "quantum/protocols.hpp"

namespace qlink::quantum::protocols {
namespace {

using bell::BellState;

class ProtocolsTest : public ::testing::Test {
 protected:
  std::pair<QubitId, QubitId> make_pair(BellState s) {
    const QubitId a = reg_.create();
    const QubitId b = reg_.create();
    const QubitId ab[] = {a, b};
    reg_.set_state(ab, DensityMatrix::from_pure(bell::state_vector(s)));
    return {a, b};
  }

  QubitId make_state(double theta, double phi) {
    const QubitId q = reg_.create();
    const QubitId ids[] = {q};
    reg_.apply_unitary(gates::ry(theta), ids);
    reg_.apply_unitary(gates::rz(phi), ids);
    return q;
  }

  std::vector<Complex> expected_vec(double theta, double phi) {
    return {std::cos(theta / 2) * std::exp(Complex{0, -phi / 2}),
            std::sin(theta / 2) * std::exp(Complex{0, phi / 2})};
  }

  sim::Random random_{2718};
  QuantumRegistry reg_{random_};
  double metrics_sum_ = 0.0;
};

TEST_F(ProtocolsTest, TeleportPerfectOverEveryBellState) {
  for (BellState s : {BellState::kPhiPlus, BellState::kPhiMinus,
                      BellState::kPsiPlus, BellState::kPsiMinus}) {
    for (int trial = 0; trial < 8; ++trial) {  // cover all outcome pairs
      const auto [ha, hb] = make_pair(s);
      const QubitId src = make_state(1.1, 0.4);
      teleport(reg_, src, ha, hb, s);
      const QubitId rb[] = {hb};
      EXPECT_NEAR(reg_.peek(rb).fidelity(expected_vec(1.1, 0.4)), 1.0, 1e-9)
          << bell::name(s) << " trial " << trial;
      reg_.discard(src);
      reg_.discard(ha);
      reg_.discard(hb);
    }
  }
}

TEST_F(ProtocolsTest, TeleportReplaysTheExplicitCircuitDrawForDraw) {
  // On the dense backend, bell_measure + the |Psi+> correction table is
  // CNOT, H, two Z measurements, then X, X^m2, Z^m1 on the receiver —
  // with the same Random draws, so a caller may swap one for the other
  // without moving any outcome.
  sim::Random random_lib{99};
  sim::Random random_gates{99};
  QuantumRegistry lib{random_lib};
  QuantumRegistry by_gates{random_gates};
  auto prepare = [](QuantumRegistry& reg) {
    const QubitId src = reg.create();
    const QubitId s[] = {src};
    reg.apply_unitary(gates::ry(0.7), s);
    reg.apply_unitary(gates::rz(1.3), s);
    const QubitId a = reg.create();
    const QubitId b = reg.create();
    const QubitId ab[] = {a, b};
    reg.set_state(ab, DensityMatrix::from_pure(
                          bell::state_vector(BellState::kPsiPlus)));
    return std::array<QubitId, 3>{src, a, b};
  };
  for (int trial = 0; trial < 32; ++trial) {
    const auto [ls, la, lb] = prepare(lib);
    const BellMeasurement m = bell_measure(lib, ls, la);
    apply_teleport_corrections(lib, lb, m, BellState::kPsiPlus);

    const auto [gs, ga, gb] = prepare(by_gates);
    const QubitId pair[] = {gs, ga};
    const QubitId src[] = {gs};
    by_gates.apply_unitary(gates::cnot(), pair);
    by_gates.apply_unitary(gates::h(), src);
    const int m1 = by_gates.measure(gs, gates::Basis::kZ);
    const int m2 = by_gates.measure(ga, gates::Basis::kZ);
    const QubitId recv[] = {gb};
    by_gates.apply_unitary(gates::x(), recv);
    if (m2 == 1) by_gates.apply_unitary(gates::x(), recv);
    if (m1 == 1) by_gates.apply_unitary(gates::z(), recv);

    EXPECT_EQ(m.m1, m1) << "trial " << trial;
    EXPECT_EQ(m.m2, m2) << "trial " << trial;
    const QubitId lr[] = {lb};
    const Matrix diff = lib.peek(lr).matrix() - by_gates.peek(recv).matrix();
    for (std::size_t r = 0; r < 2; ++r) {
      for (std::size_t c = 0; c < 2; ++c) {
        EXPECT_NEAR(std::abs(diff(r, c)), 0.0, 1e-12) << "trial " << trial;
      }
    }
    for (QubitId q : {ls, la, lb}) lib.discard(q);
    for (QubitId q : {gs, ga, gb}) by_gates.discard(q);
  }
  EXPECT_EQ(random_lib.uniform(), random_gates.uniform());
}

TEST_F(ProtocolsTest, TeleportBasisStatesExactly) {
  // |0> and |1> teleport to themselves.
  for (int bit : {0, 1}) {
    const auto [ha, hb] = make_pair(BellState::kPsiPlus);
    const QubitId src = reg_.create();
    if (bit == 1) {
      const QubitId s[] = {src};
      reg_.apply_unitary(gates::x(), s);
    }
    teleport(reg_, src, ha, hb, BellState::kPsiPlus);
    const QubitId rb[] = {hb};
    const std::vector<Complex> expect =
        bit == 0 ? std::vector<Complex>{1, 0} : std::vector<Complex>{0, 1};
    EXPECT_NEAR(reg_.peek(rb).fidelity(expect), 1.0, 1e-9);
    reg_.discard(src);
    reg_.discard(ha);
    reg_.discard(hb);
  }
}

TEST_F(ProtocolsTest, TeleportFidelityBoundedByPairQuality) {
  // A depolarised pair teleports with fidelity (roughly) tracking the
  // pair fidelity: F_tel = (2 F_pair + 1) / 3 for Werner input, averaged
  // over outcomes.
  metrics_sum_ = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const auto [ha, hb] = make_pair(BellState::kPhiPlus);
    const QubitId noisy[] = {ha};
    reg_.apply_kraus(channels::depolarizing(0.8), noisy);
    const QubitId src = make_state(0.9, 0.2);
    teleport(reg_, src, ha, hb, BellState::kPhiPlus);
    const QubitId rb[] = {hb};
    metrics_sum_ += reg_.peek(rb).fidelity(expected_vec(0.9, 0.2));
    reg_.discard(src);
    reg_.discard(ha);
    reg_.discard(hb);
  }
  const double mean = metrics_sum_ / trials;
  // Pair fidelity after depolarizing(f=0.8): F = 0.8 + 0.2/... compute:
  // rho -> 0.8 rho + noise; F_pair = 0.8 * 1 + 0.2 * (1/4 ... ) ~ 0.85.
  EXPECT_GT(mean, 0.75);
  EXPECT_LT(mean, 1.0);
}

TEST_F(ProtocolsTest, SwapComposesTwoPsiPlusPairs) {
  for (int trial = 0; trial < 16; ++trial) {
    const auto [a, b_left] = make_pair(BellState::kPsiPlus);
    const auto [b_right, c] = make_pair(BellState::kPsiPlus);
    entanglement_swap(reg_, b_left, b_right, c, BellState::kPsiPlus);
    const QubitId ac[] = {a, c};
    // Swapping two Psi+ pairs yields Psi+ between the outer qubits after
    // the corrections of apply_teleport_corrections.
    EXPECT_NEAR(
        reg_.fidelity(ac, bell::state_vector(BellState::kPsiPlus)), 1.0,
        1e-9)
        << "trial " << trial;
    reg_.discard(a);
    reg_.discard(b_left);
    reg_.discard(b_right);
    reg_.discard(c);
  }
}

TEST_F(ProtocolsTest, SwapOfNoisyPairsMultipliesError) {
  metrics_sum_ = 0.0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    const auto [a, bl] = make_pair(BellState::kPsiPlus);
    const auto [br, c] = make_pair(BellState::kPsiPlus);
    const QubitId na[] = {a};
    const QubitId nc[] = {c};
    reg_.apply_kraus(channels::dephasing(0.05), na);
    reg_.apply_kraus(channels::dephasing(0.05), nc);
    entanglement_swap(reg_, bl, br, c, BellState::kPsiPlus);
    const QubitId ac[] = {a, c};
    metrics_sum_ +=
        reg_.fidelity(ac, bell::state_vector(BellState::kPsiPlus));
    reg_.discard(a);
    reg_.discard(bl);
    reg_.discard(br);
    reg_.discard(c);
  }
  const double mean = metrics_sum_ / trials;
  // Two pairs each with coherence 0.9: composed coherence 0.81:
  // F = (1 + 0.81)/2 = 0.905.
  EXPECT_NEAR(mean, 0.905, 0.01);
}

TEST_F(ProtocolsTest, DistillImprovesWernerPairs) {
  const double f_in = 0.75;
  metrics_sum_ = 0.0;
  int successes = 0;
  const int trials = 400;
  auto make_werner = [&](double f) {
    auto [a, b] = make_pair(BellState::kPsiPlus);
    // Werner state of fidelity f: depolarise one side with parameter
    // matching F = f: rho_W = p |Psi+><Psi+| + (1-p) I/4, F = p + (1-p)/4.
    const double p = (4.0 * f - 1.0) / 3.0;
    // One-sided depolarizing(f') gives exactly the Werner twirl on a
    // Bell state with p = (4 f' - 1)/3 ... use the direct construction:
    DensityMatrix w = DensityMatrix::from_pure(
        bell::state_vector(BellState::kPsiPlus));
    DensityMatrix mixed = DensityMatrix::from_matrix(
        w.matrix() * Complex{p, 0.0} +
        Matrix::identity(4) * Complex{(1.0 - p) / 4.0, 0.0});
    const QubitId ab[] = {a, b};
    reg_.set_state(ab, mixed);
    return std::pair<QubitId, QubitId>(a, b);
  };

  for (int t = 0; t < trials; ++t) {
    const auto [ka, kb] = make_werner(f_in);
    const auto [sa, sb] = make_werner(f_in);
    if (distill(reg_, ka, kb, sa, sb)) {
      ++successes;
      const QubitId kept[] = {ka, kb};
      metrics_sum_ +=
          reg_.fidelity(kept, bell::state_vector(BellState::kPsiPlus));
    }
    reg_.discard(ka);
    reg_.discard(kb);
    reg_.discard(sa);
    reg_.discard(sb);
  }
  ASSERT_GT(successes, 100);
  const double f_out = metrics_sum_ / successes;
  EXPECT_GT(f_out, f_in + 0.02);
  EXPECT_NEAR(f_out, bbpssw_output_fidelity(f_in), 0.03);
  EXPECT_NEAR(static_cast<double>(successes) / trials,
              bbpssw_success_probability(f_in), 0.06);
}

TEST_F(ProtocolsTest, DistillCannotImprovePerfectPairs) {
  const auto [ka, kb] = make_pair(BellState::kPsiPlus);
  const auto [sa, sb] = make_pair(BellState::kPsiPlus);
  EXPECT_TRUE(distill(reg_, ka, kb, sa, sb));
  const QubitId kept[] = {ka, kb};
  EXPECT_NEAR(reg_.fidelity(kept, bell::state_vector(BellState::kPsiPlus)),
              1.0, 1e-9);
}

TEST_F(ProtocolsTest, BbpsswFormulaFixedPoints) {
  // F = 1 is a fixed point; F = 1/4 (fully mixed) is too.
  EXPECT_NEAR(bbpssw_output_fidelity(1.0), 1.0, 1e-12);
  EXPECT_NEAR(bbpssw_output_fidelity(0.25), 0.25, 1e-12);
  // Improvement iff F > 1/2.
  EXPECT_GT(bbpssw_output_fidelity(0.7), 0.7);
  EXPECT_GT(bbpssw_output_fidelity(0.9), 0.9);
  EXPECT_LT(bbpssw_output_fidelity(0.4), 0.41);
  EXPECT_THROW(bbpssw_output_fidelity(1.5), std::invalid_argument);
}

}  // namespace
}  // namespace qlink::quantum::protocols
