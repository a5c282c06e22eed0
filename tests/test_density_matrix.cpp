#include <gtest/gtest.h>

#include <cmath>

#include "quantum/bell.hpp"
#include "quantum/density_matrix.hpp"
#include "quantum/gates.hpp"

namespace qlink::quantum {
namespace {

const double kS = 1.0 / std::sqrt(2.0);

TEST(DensityMatrix, StartsInGroundState) {
  DensityMatrix rho(2);
  EXPECT_EQ(rho.num_qubits(), 2);
  EXPECT_EQ(rho.dim(), 4u);
  EXPECT_NEAR(rho.matrix()(0, 0).real(), 1.0, 1e-12);
  EXPECT_NEAR(rho.trace_real(), 1.0, 1e-12);
  EXPECT_NEAR(rho.purity(), 1.0, 1e-12);
}

TEST(DensityMatrix, FromPureRequiresNormalisation) {
  const std::vector<Complex> bad{1.0, 1.0};
  EXPECT_THROW(DensityMatrix::from_pure(bad), std::invalid_argument);
  const std::vector<Complex> good{kS, kS};
  const DensityMatrix rho = DensityMatrix::from_pure(good);
  EXPECT_NEAR(rho.matrix()(0, 1).real(), 0.5, 1e-12);
}

TEST(DensityMatrix, SingleQubitUnitaryOnTarget) {
  DensityMatrix rho(2);  // |00>
  const int t1[] = {1};
  rho.apply_unitary(gates::x(), t1);  // -> |01>
  EXPECT_NEAR(rho.matrix()(1, 1).real(), 1.0, 1e-12);
  const int t0[] = {0};
  rho.apply_unitary(gates::x(), t0);  // -> |11>
  EXPECT_NEAR(rho.matrix()(3, 3).real(), 1.0, 1e-12);
}

TEST(DensityMatrix, HadamardCnotMakesBellState) {
  DensityMatrix rho(2);
  const int t0[] = {0};
  rho.apply_unitary(gates::h(), t0);
  const int both[] = {0, 1};
  rho.apply_unitary(gates::cnot(), both);
  EXPECT_NEAR(bell::fidelity(rho, bell::BellState::kPhiPlus), 1.0, 1e-12);
}

TEST(DensityMatrix, CnotWithReversedTargets) {
  // CNOT with control = qubit 1: |01> -> |11>.
  DensityMatrix rho(2);
  const int t1[] = {1};
  rho.apply_unitary(gates::x(), t1);
  const int rev[] = {1, 0};
  rho.apply_unitary(gates::cnot(), rev);
  EXPECT_NEAR(rho.matrix()(3, 3).real(), 1.0, 1e-12);
}

TEST(DensityMatrix, ExpandOperatorValidatesTargets) {
  DensityMatrix rho(2);
  const int bad[] = {0, 0};
  EXPECT_THROW(rho.apply_unitary(gates::cnot(), bad), std::invalid_argument);
  const int oob[] = {2};
  EXPECT_THROW(rho.apply_unitary(gates::x(), oob), std::invalid_argument);
}

TEST(DensityMatrix, KrausDephasingKillsCoherence) {
  const std::vector<Complex> plus{kS, kS};
  DensityMatrix rho = DensityMatrix::from_pure(plus);
  const std::vector<Matrix> kraus = {
      gates::i2() * Complex{std::sqrt(0.5), 0.0},
      gates::z() * Complex{std::sqrt(0.5), 0.0}};
  const int t[] = {0};
  rho.apply_kraus(kraus, t);
  EXPECT_NEAR(std::abs(rho.matrix()(0, 1)), 0.0, 1e-12);
  EXPECT_NEAR(rho.trace_real(), 1.0, 1e-12);
  EXPECT_NEAR(rho.purity(), 0.5, 1e-12);
}

TEST(DensityMatrix, ApplyAndRenormalizeProjects) {
  DensityMatrix rho(1);
  const int t[] = {0};
  rho.apply_unitary(gates::h(), t);
  const Matrix p1{{0, 0}, {0, 1}};
  const double p = rho.apply_and_renormalize(p1, t);
  EXPECT_NEAR(p, 0.5, 1e-12);
  EXPECT_NEAR(rho.matrix()(1, 1).real(), 1.0, 1e-12);
}

TEST(DensityMatrix, ApplyAndRenormalizeZeroProbability) {
  DensityMatrix rho(1);  // |0>
  const Matrix p1{{0, 0}, {0, 1}};
  const int t[] = {0};
  EXPECT_EQ(rho.apply_and_renormalize(p1, t), 0.0);
  // State untouched.
  EXPECT_NEAR(rho.matrix()(0, 0).real(), 1.0, 1e-12);
}

TEST(DensityMatrix, PartialTraceOfProductState) {
  DensityMatrix rho(2);
  const int t1[] = {1};
  rho.apply_unitary(gates::x(), t1);  // |01>
  const DensityMatrix reduced = rho.partial_trace(t1);
  EXPECT_EQ(reduced.num_qubits(), 1);
  EXPECT_NEAR(reduced.matrix()(0, 0).real(), 1.0, 1e-12);  // qubit 0 = |0>
}

TEST(DensityMatrix, PartialTraceOfBellStateIsMaximallyMixed) {
  const DensityMatrix rho = DensityMatrix::from_pure(
      bell::state_vector(bell::BellState::kPhiPlus));
  const int t0[] = {0};
  const DensityMatrix reduced = rho.partial_trace(t0);
  EXPECT_NEAR(reduced.matrix()(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(reduced.matrix()(1, 1).real(), 0.5, 1e-12);
  EXPECT_NEAR(reduced.purity(), 0.5, 1e-12);
}

TEST(DensityMatrix, PartialTraceCannotRemoveEverything) {
  DensityMatrix rho(1);
  const int t[] = {0};
  EXPECT_THROW(rho.partial_trace(t), std::invalid_argument);
}

TEST(DensityMatrix, TensorComposesStates) {
  DensityMatrix a(1);
  const int t[] = {0};
  a.apply_unitary(gates::x(), t);  // |1>
  const DensityMatrix b(1);        // |0>
  const DensityMatrix ab = a.tensor(b);
  EXPECT_EQ(ab.num_qubits(), 2);
  EXPECT_NEAR(ab.matrix()(2, 2).real(), 1.0, 1e-12);  // |10>
}

TEST(DensityMatrix, FidelityOfOrthogonalStatesIsZero) {
  const DensityMatrix rho = DensityMatrix::from_pure(
      bell::state_vector(bell::BellState::kPsiPlus));
  EXPECT_NEAR(rho.fidelity(bell::state_vector(bell::BellState::kPsiMinus)),
              0.0, 1e-12);
  EXPECT_NEAR(rho.fidelity(bell::state_vector(bell::BellState::kPsiPlus)),
              1.0, 1e-12);
}

TEST(DensityMatrix, PermutedSwapsQubits) {
  DensityMatrix rho(2);
  const int t1[] = {1};
  rho.apply_unitary(gates::x(), t1);  // |01>
  const int perm[] = {1, 0};
  const DensityMatrix swapped = rho.permuted(perm);
  EXPECT_NEAR(swapped.matrix()(2, 2).real(), 1.0, 1e-12);  // |10>
}

TEST(DensityMatrix, PermutationPreservesEntangledFidelity) {
  // |Psi+> is symmetric under qubit exchange.
  const DensityMatrix rho = DensityMatrix::from_pure(
      bell::state_vector(bell::BellState::kPsiPlus));
  const int perm[] = {1, 0};
  EXPECT_NEAR(bell::fidelity(rho.permuted(perm), bell::BellState::kPsiPlus),
              1.0, 1e-12);
  // |Psi-> picks up a global sign only: fidelity unchanged too.
  const DensityMatrix rho2 = DensityMatrix::from_pure(
      bell::state_vector(bell::BellState::kPsiMinus));
  EXPECT_NEAR(bell::fidelity(rho2.permuted(perm), bell::BellState::kPsiMinus),
              1.0, 1e-12);
}

TEST(DensityMatrix, ThreeQubitGhzPartialTrace) {
  DensityMatrix rho(3);
  const int t0[] = {0};
  rho.apply_unitary(gates::h(), t0);
  const int c01[] = {0, 1};
  const int c02[] = {0, 2};
  rho.apply_unitary(gates::cnot(), c01);
  rho.apply_unitary(gates::cnot(), c02);
  // Tracing out qubit 2 leaves a classically correlated mixture.
  const int t2[] = {2};
  const DensityMatrix reduced = rho.partial_trace(t2);
  EXPECT_NEAR(reduced.matrix()(0, 0).real(), 0.5, 1e-12);
  EXPECT_NEAR(reduced.matrix()(3, 3).real(), 0.5, 1e-12);
  EXPECT_NEAR(std::abs(reduced.matrix()(0, 3)), 0.0, 1e-12);
}

TEST(DensityMatrix, RenormalizeFixesDrift) {
  DensityMatrix rho(1);
  DensityMatrix scaled = DensityMatrix::from_matrix(
      rho.matrix() * Complex{0.5, 0.0});
  scaled.renormalize();
  EXPECT_NEAR(scaled.trace_real(), 1.0, 1e-12);
}

}  // namespace
}  // namespace qlink::quantum
