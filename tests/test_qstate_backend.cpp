#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "qstate/bell_algebra.hpp"
#include "qstate/state_store.hpp"
#include "quantum/bell.hpp"
#include "quantum/channels.hpp"
#include "quantum/gates.hpp"
#include "quantum/registry.hpp"

/// Unit tests for the quantum-state store (src/qstate/): the
/// Bell-diagonal closed forms are checked op-by-op
/// against the dense reference with identical Random streams, and the
/// promotion rules are exercised explicitly. Full-stack equivalence
/// (whole link / chain runs) lives in test_backend_equivalence.cpp.

namespace qlink::quantum {
namespace {

using gates::Basis;
using qstate::BackendKind;
namespace ba = qstate::bell_algebra;

std::array<double, 4> arbitrary_coeffs(int salt) {
  // Deterministic, not symmetric, strictly positive, normalised.
  std::array<double, 4> p{0.55 + 0.01 * salt, 0.20, 0.15, 0.10 - 0.01 * salt};
  double total = 0.0;
  for (double v : p) total += v;
  for (double& v : p) v /= total;
  return p;
}

/// Two registries (dense reference, Bell-diagonal) driven by
/// identically seeded Random sources.
struct BackendHarness {
  sim::Random random_dense{12345};
  sim::Random random_bell{12345};
  QuantumRegistry dense{random_dense, BackendKind::kDense};
  QuantumRegistry bell{random_bell, BackendKind::kBellDiagonal};

  std::pair<QubitId, QubitId> install_pair(QuantumRegistry& reg,
                                           const std::array<double, 4>& p) {
    const QubitId a = reg.create();
    const QubitId b = reg.create();
    const QubitId pair[] = {a, b};
    reg.set_state(pair, bell::from_coefficients(p));
    return {a, b};
  }

  void expect_pair_states_match(QubitId a, QubitId b, double tol = 1e-12) {
    const QubitId pair[] = {a, b};
    EXPECT_TRUE(dense.peek(pair).approx_equal(bell.peek(pair), tol));
  }
};

TEST(BellAlgebra, PauliPermutationsMatchDenseConjugation) {
  const auto p = arbitrary_coeffs(0);
  const DensityMatrix rho = bell::from_coefficients(p);
  const Matrix* paulis[] = {&gates::i2(), &gates::x(), &gates::y(),
                            &gates::z()};
  for (int code = 0; code < 4; ++code) {
    for (const int qubit : {0, 1}) {
      DensityMatrix expect = rho;
      const int t[] = {qubit};
      expect.apply_unitary(*paulis[code], t);
      const DensityMatrix got =
          bell::from_coefficients(ba::apply_pauli(p, code));
      EXPECT_TRUE(got.approx_equal(expect, 1e-12))
          << "pauli " << code << " qubit " << qubit;
    }
  }
}

TEST(BellAlgebra, ChannelWeightsRecognizePauliChannels) {
  const auto deph = channels::dephasing(0.13);
  const auto w1 = ba::pauli_channel_weights(deph);
  EXPECT_TRUE(w1.exact);
  EXPECT_NEAR(w1.w[0], 0.87, 1e-12);
  EXPECT_NEAR(w1.w[3], 0.13, 1e-12);

  const auto depol = channels::depolarizing(0.91);
  const auto w2 = ba::pauli_channel_weights(depol);
  EXPECT_TRUE(w2.exact);
  EXPECT_NEAR(w2.w[0], 0.91, 1e-12);
  EXPECT_NEAR(w2.w[1], 0.03, 1e-12);

  const auto ad = channels::amplitude_damping(0.2);
  const auto w3 = ba::pauli_channel_weights(ad);
  EXPECT_FALSE(w3.exact);
  // Chi-matrix diagonal still sums to 1 for a trace-preserving channel.
  EXPECT_NEAR(w3.w[0] + w3.w[1] + w3.w[2] + w3.w[3], 1.0, 1e-12);
}

TEST(BellAlgebra, T1T2TwirlWeightsAreAProbabilityDistribution) {
  const auto w = ba::t1t2_twirl_weights(0.02, 0.01);
  double total = 0.0;
  for (double v : w) {
    EXPECT_GE(v, 0.0);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
  // gamma = 0 reduces to plain dephasing.
  const auto w0 = ba::t1t2_twirl_weights(0.0, 0.25);
  EXPECT_NEAR(w0[0], 0.75, 1e-12);
  EXPECT_NEAR(w0[3], 0.25, 1e-12);
}

TEST(BackendKindTest, NamesAndParsing) {
  EXPECT_EQ(qstate::parse_backend_kind("dense"), BackendKind::kDense);
  EXPECT_EQ(qstate::parse_backend_kind("bell"), BackendKind::kBellDiagonal);
  EXPECT_EQ(qstate::parse_backend_kind("bell-diagonal"),
            BackendKind::kBellDiagonal);
  EXPECT_EQ(qstate::parse_backend_kind("bogus"), std::nullopt);
  // The names every bench JSON "backend" field carries.
  sim::Random random{1};
  EXPECT_STREQ(QuantumRegistry(random, BackendKind::kDense).backend().name(),
               "dense");
  EXPECT_STREQ(
      QuantumRegistry(random, BackendKind::kBellDiagonal).backend().name(),
      "bell-diagonal");
}

TEST(BellBackendTest, BellDiagonalInstallStaysStructured) {
  BackendHarness h;
  const auto p = arbitrary_coeffs(1);
  const auto [da, db] = h.install_pair(h.dense, p);
  const auto [qa, qb] = h.install_pair(h.bell, p);
  (void)da;
  (void)db;
  h.expect_pair_states_match(qa, qb);
  EXPECT_EQ(h.bell.backend().stats().promotions, 0u);
  EXPECT_EQ(h.bell.backend().stats().dense_ops, 0u);
}

TEST(BellBackendTest, PauliNoiseMatchesDenseInClosedForm) {
  BackendHarness h;
  const auto p = arbitrary_coeffs(2);
  const auto [da, db] = h.install_pair(h.dense, p);
  const auto [qa, qb] = h.install_pair(h.bell, p);

  for (QuantumRegistry* reg : {&h.dense, &h.bell}) {
    const QubitId a = reg == &h.dense ? da : qa;
    const QubitId b = reg == &h.dense ? db : qb;
    reg->dephase(a, 0.05);
    reg->depolarize(b, 0.93);
    reg->decay(a, 1e5, -1.0, 3.5e6);  // infinite T1: pure dephasing
    const QubitId ids[] = {b};
    reg->apply_unitary(gates::z(), ids);
    reg->apply_kraus(channels::dephasing(0.02), ids);
  }
  h.expect_pair_states_match(qa, qb);
  EXPECT_EQ(h.bell.backend().stats().promotions, 0u);
  EXPECT_EQ(h.bell.backend().stats().dense_ops, 0u);
}

TEST(BellBackendTest, MeasurementMatchesDenseOutcomeForOutcome) {
  for (const Basis basis : {Basis::kX, Basis::kY, Basis::kZ}) {
    BackendHarness h;
    const auto p = arbitrary_coeffs(3);
    const auto [da, db] = h.install_pair(h.dense, p);
    const auto [qa, qb] = h.install_pair(h.bell, p);

    const int od = h.dense.measure(da, basis);
    const int ob = h.bell.measure(qa, basis);
    EXPECT_EQ(od, ob);  // marginal is exactly 1/2 in both backends

    // The partner's conditional state must agree.
    const QubitId pd[] = {db};
    const QubitId pb[] = {qb};
    EXPECT_TRUE(h.dense.peek(pd).approx_equal(h.bell.peek(pb), 1e-12));
    // And the measured qubit's post state.
    const QubitId md[] = {da};
    const QubitId mb[] = {qa};
    EXPECT_TRUE(h.dense.peek(md).approx_equal(h.bell.peek(mb), 1e-12));
  }
}

TEST(BellBackendTest, ClosedFormSwapMatchesDenseForAllBellCombos) {
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      BackendHarness h;
      std::array<double, 4> pi{};
      std::array<double, 4> pj{};
      pi[i] = 1.0;
      pj[j] = 1.0;
      const auto [du, dc] = h.install_pair(h.dense, pi);
      const auto [dt, dv] = h.install_pair(h.dense, pj);
      const auto [bu, bc] = h.install_pair(h.bell, pi);
      const auto [bt, bv] = h.install_pair(h.bell, pj);

      const auto [dm1, dm2] = h.dense.bell_measure(dc, dt);
      const auto [bm1, bm2] = h.bell.bell_measure(bc, bt);
      EXPECT_EQ(dm1, bm1) << "inputs " << i << "," << j;
      EXPECT_EQ(dm2, bm2) << "inputs " << i << "," << j;

      const QubitId douter[] = {du, dv};
      const QubitId bouter[] = {bu, bv};
      EXPECT_TRUE(
          h.dense.peek(douter).approx_equal(h.bell.peek(bouter), 1e-9))
          << "inputs " << i << "," << j;
      EXPECT_EQ(h.bell.group_size(bu), 2u);
      EXPECT_EQ(h.bell.group_size(bc), 1u);
      EXPECT_EQ(h.bell.backend().stats().promotions, 0u);
    }
  }
}

TEST(BellBackendTest, ClosedFormSwapMatchesDenseForMixedStates) {
  BackendHarness h;
  const auto p1 = arbitrary_coeffs(1);
  const auto p2 = arbitrary_coeffs(4);
  const auto [du, dc] = h.install_pair(h.dense, p1);
  const auto [dt, dv] = h.install_pair(h.dense, p2);
  const auto [bu, bc] = h.install_pair(h.bell, p1);
  const auto [bt, bv] = h.install_pair(h.bell, p2);

  const auto [dm1, dm2] = h.dense.bell_measure(dc, dt);
  const auto [bm1, bm2] = h.bell.bell_measure(bc, bt);
  EXPECT_EQ(dm1, bm1);
  EXPECT_EQ(dm2, bm2);

  const QubitId douter[] = {du, dv};
  const QubitId bouter[] = {bu, bv};
  EXPECT_TRUE(h.dense.peek(douter).approx_equal(h.bell.peek(bouter), 1e-9));
}

TEST(BellBackendTest, SwapGateRelabelsAcrossGroups) {
  // move_comm_to_memory's SWAP between an entangled electron and a
  // fresh carbon must stay in closed form.
  BackendHarness h;
  const auto p = arbitrary_coeffs(5);
  const auto [da, db] = h.install_pair(h.dense, p);
  const auto [ba_, bb] = h.install_pair(h.bell, p);
  const QubitId dc = h.dense.create();
  const QubitId bc = h.bell.create();

  const QubitId dpair[] = {db, dc};
  const QubitId bpair[] = {bb, bc};
  h.dense.apply_unitary(gates::swap(), dpair);
  h.bell.apply_unitary(gates::swap(), bpair);

  // The entanglement moved to (a, c) in both backends.
  const QubitId dac[] = {da, dc};
  const QubitId bac[] = {ba_, bc};
  EXPECT_TRUE(h.dense.peek(dac).approx_equal(h.bell.peek(bac), 1e-12));
  EXPECT_EQ(h.bell.group_size(bc), 2u);
  EXPECT_EQ(h.bell.group_size(bb), 1u);
  EXPECT_EQ(h.bell.backend().stats().promotions, 0u);
}

TEST(BellBackendTest, NonCliffordOpPromotesToDenseWithMatchingState) {
  BackendHarness h;
  const auto p = arbitrary_coeffs(6);
  const auto [da, db] = h.install_pair(h.dense, p);
  const auto [qa, qb] = h.install_pair(h.bell, p);
  (void)db;
  (void)qb;

  const Matrix u = gates::rx(0.3);
  const QubitId dd[] = {da};
  const QubitId bb[] = {qa};
  h.dense.apply_unitary(u, dd);
  h.bell.apply_unitary(u, bb);

  EXPECT_EQ(h.bell.backend().stats().promotions, 1u);
  h.expect_pair_states_match(qa, qb);

  // Once dense, later Pauli noise still matches the reference.
  h.dense.dephase(da, 0.1);
  h.bell.dephase(qa, 0.1);
  h.expect_pair_states_match(qa, qb);
}

TEST(BellBackendTest, FreshInstallDemotesPromotedPair) {
  // The ROADMAP's demotion case: a pair escalated to dense by a
  // non-Clifford op returns to the Bell-diagonal fast path when a fresh
  // (re-twirled) install lands on the same qubits — the install rebuilds
  // the group anyway, so the demotion is free.
  BackendHarness h;
  const auto [qa, qb] = h.install_pair(h.bell, arbitrary_coeffs(9));
  const auto [da, db] = h.install_pair(h.dense, arbitrary_coeffs(9));

  const Matrix u = gates::rx(0.4);
  const QubitId one_b[] = {qa};
  const QubitId one_d[] = {da};
  h.bell.apply_unitary(u, one_b);
  h.dense.apply_unitary(u, one_d);
  EXPECT_EQ(h.bell.backend().stats().promotions, 1u);
  EXPECT_EQ(h.bell.backend().stats().demotions, 0u);

  // Fresh Bell-diagonal install on the same qubits (what
  // pauli_twirl_installs produces for every heralded pair).
  const auto p = arbitrary_coeffs(3);
  const QubitId bpair[] = {qa, qb};
  const QubitId dpair[] = {da, db};
  h.bell.set_state(bpair, bell::from_coefficients(p));
  h.dense.set_state(dpair, bell::from_coefficients(p));
  EXPECT_EQ(h.bell.backend().stats().promotions, 1u);
  EXPECT_EQ(h.bell.backend().stats().demotions, 1u);
  h.expect_pair_states_match(qa, qb);

  // Back on the fast path: closed-form noise, no further promotion.
  const auto fast_before = h.bell.backend().stats().fast_ops;
  h.bell.dephase(qa, 0.1);
  h.dense.dephase(da, 0.1);
  EXPECT_EQ(h.bell.backend().stats().fast_ops, fast_before + 1);
  EXPECT_EQ(h.bell.backend().stats().promotions, 1u);
  h.expect_pair_states_match(qa, qb);

  // The dense reference never demotes (it has no structured manifold).
  EXPECT_EQ(h.dense.backend().stats().demotions, 0u);
}

TEST(BellBackendTest, PartiallyCoveredDenseGroupIsNotADemotion) {
  // The promoted pair (qa, qb) only half-overlaps the install: qb's
  // group stays dense, so nothing was won back — no demotion counted.
  BackendHarness h;
  const auto [qa, qb] = h.install_pair(h.bell, arbitrary_coeffs(5));
  const QubitId one[] = {qa};
  h.bell.apply_unitary(gates::rx(0.4), one);
  EXPECT_EQ(h.bell.backend().stats().promotions, 1u);

  const QubitId fresh = h.bell.create();
  const QubitId mixed[] = {qa, fresh};
  h.bell.set_state(mixed, bell::from_coefficients(arbitrary_coeffs(1)));
  EXPECT_EQ(h.bell.backend().stats().demotions, 0u);
  EXPECT_EQ(h.bell.group_size(qb), 1u);  // qb kept its reduced state
}

TEST(BellBackendTest, InstallOverStructuredPairIsNotADemotion) {
  // Re-installing over a pair that never left the fast path must not
  // count: demotions measure dense groups won back, nothing else.
  BackendHarness h;
  const auto [qa, qb] = h.install_pair(h.bell, arbitrary_coeffs(2));
  const QubitId pair[] = {qa, qb};
  h.bell.set_state(pair, bell::from_coefficients(arbitrary_coeffs(4)));
  EXPECT_EQ(h.bell.backend().stats().promotions, 0u);
  EXPECT_EQ(h.bell.backend().stats().demotions, 0u);
}

TEST(BellBackendTest, NonBellDiagonalInstallGoesDense) {
  BackendHarness h;
  // |00><00| is separable but not Bell-diagonal.
  std::vector<Complex> zero{1, 0, 0, 0};
  const QubitId a = h.bell.create();
  const QubitId b = h.bell.create();
  const QubitId pair[] = {a, b};
  h.bell.set_state(pair, DensityMatrix::from_pure(zero));
  EXPECT_EQ(h.bell.backend().stats().dense_ops, 1u);
  EXPECT_NEAR(h.bell.peek(pair).matrix()(0, 0).real(), 1.0, 1e-12);
}

TEST(BellBackendTest, FiniteT1DecayUsesTwirlByDefault) {
  BackendHarness h;
  const auto p = arbitrary_coeffs(7);
  const auto [qa, qb] = h.install_pair(h.bell, p);
  (void)qb;
  const std::uint64_t before = h.bell.backend().stats().promotions;
  h.bell.decay(qa, 1e4, 2.86e6, 1.0e6);  // finite T1
  EXPECT_EQ(h.bell.backend().stats().promotions, before);  // no escalation

  // The twirled decay preserves trace and keeps a valid distribution.
  const QubitId pair[] = {qa, qb};
  const DensityMatrix rho = h.bell.peek(pair);
  EXPECT_NEAR(rho.trace_real(), 1.0, 1e-12);
}

TEST(DenseStoreTest, PoolRecyclesBuffers) {
  sim::Random random{11};
  qstate::StateStore store(random, BackendKind::kDense);
  const auto a = store.create();
  const auto b = store.create();
  const qstate::QubitId pair[] = {a, b};
  for (int i = 0; i < 32; ++i) {
    store.set_state(pair, bell::from_coefficients(arbitrary_coeffs(0)));
    store.reset(a);
    store.reset(b);
  }
  EXPECT_GT(store.stats().pool_hits, 0u);
  EXPECT_LT(store.stats().pool_misses, 16u);
}

TEST(DenseStoreTest, BellMeasureMatchesExplicitCircuit) {
  // The registry-level Bell measurement must consume Random identically
  // to the historical CNOT + H + Z/Z sequence.
  sim::Random r1{77};
  sim::Random r2{77};
  QuantumRegistry reg1{r1, BackendKind::kDense};
  QuantumRegistry reg2{r2, BackendKind::kDense};

  auto mk = [](QuantumRegistry& reg, const std::array<double, 4>& p) {
    const QubitId a = reg.create();
    const QubitId b = reg.create();
    const QubitId pair[] = {a, b};
    reg.set_state(pair, bell::from_coefficients(p));
    return std::make_pair(a, b);
  };
  const auto [u1, c1] = mk(reg1, arbitrary_coeffs(1));
  const auto [t1, v1] = mk(reg1, arbitrary_coeffs(2));
  const auto [u2, c2] = mk(reg2, arbitrary_coeffs(1));
  const auto [t2, v2] = mk(reg2, arbitrary_coeffs(2));
  (void)u1;
  (void)u2;

  const auto [m1, m2] = reg1.bell_measure(c1, t1);

  const QubitId pair_q[] = {c2, t2};
  reg2.apply_unitary(gates::cnot(), pair_q);
  const QubitId ctrl_q[] = {c2};
  reg2.apply_unitary(gates::h(), ctrl_q);
  const int n1 = reg2.measure(c2, Basis::kZ);
  const int n2 = reg2.measure(t2, Basis::kZ);

  EXPECT_EQ(m1, n1);
  EXPECT_EQ(m2, n2);
  const QubitId o1[] = {u1, v1};
  const QubitId o2[] = {u2, v2};
  EXPECT_TRUE(reg1.peek(o1).approx_equal(reg2.peek(o2), 1e-12));
}

TEST(BellTwirlTest, TwirlPreservesBellFidelitiesAndQber) {
  // Build a decidedly non-Bell-diagonal state: partial |00> weight plus
  // a noisy Psi+.
  Matrix m(4, 4);
  m(0, 0) = 0.3;
  m(1, 1) = m(2, 2) = 0.33;
  m(1, 2) = m(2, 1) = 0.28;
  m(3, 3) = 0.04;
  DensityMatrix rho = DensityMatrix::from_matrix(std::move(m));
  rho.renormalize();
  const DensityMatrix twirled = bell::twirl(rho);

  for (const auto state :
       {bell::BellState::kPhiPlus, bell::BellState::kPhiMinus,
        bell::BellState::kPsiPlus, bell::BellState::kPsiMinus}) {
    EXPECT_NEAR(bell::fidelity(rho, state), bell::fidelity(twirled, state),
                1e-12);
    for (const auto basis : {Basis::kX, Basis::kY, Basis::kZ}) {
      EXPECT_NEAR(bell::qber(rho, state, basis),
                  bell::qber(twirled, state, basis), 1e-12);
    }
  }
  EXPECT_LT(bell::off_diagonal_residual(twirled), 1e-12);
  EXPECT_GT(bell::off_diagonal_residual(rho), 0.01);
}

}  // namespace
}  // namespace qlink::quantum
