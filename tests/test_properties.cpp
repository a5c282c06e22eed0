#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "hw/herald_model.hpp"
#include "net/packets.hpp"
#include "quantum/bell.hpp"
#include "quantum/channels.hpp"
#include "quantum/protocols.hpp"
#include "sim/random.hpp"

/// Parameterised property sweeps: invariants that must hold across whole
/// parameter ranges rather than at hand-picked points.

namespace qlink {
namespace {

using quantum::Complex;
using quantum::DensityMatrix;
using quantum::Matrix;
namespace bell = quantum::bell;
namespace channels = quantum::channels;
namespace gates = quantum::gates;

// ---------------------------------------------------------------------------
// Channels are CPTP for every parameter value.

class ChannelCptpP : public ::testing::TestWithParam<double> {};

double completeness_error(const std::vector<Matrix>& ks) {
  Matrix sum(ks.front().cols(), ks.front().cols());
  for (const auto& k : ks) sum += k.dagger() * k;
  return sum.distance(Matrix::identity(sum.rows()));
}

TEST_P(ChannelCptpP, DephasingIsCptp) {
  EXPECT_LT(completeness_error(channels::dephasing(GetParam())), 1e-12);
}

TEST_P(ChannelCptpP, DepolarizingIsCptp) {
  EXPECT_LT(completeness_error(channels::depolarizing(GetParam())), 1e-12);
}

TEST_P(ChannelCptpP, AmplitudeDampingIsCptp) {
  EXPECT_LT(completeness_error(channels::amplitude_damping(GetParam())),
            1e-12);
}

TEST_P(ChannelCptpP, ChannelsPreserveTraceAndPositivityOnRandomStates) {
  sim::Random rnd(static_cast<std::uint64_t>(GetParam() * 1e6) + 1);
  // Random pure 2-qubit state.
  std::vector<Complex> amp(4);
  for (auto& a : amp) a = Complex{rnd.uniform(-1, 1), rnd.uniform(-1, 1)};
  quantum::normalize(amp);
  DensityMatrix rho = DensityMatrix::from_pure(amp);
  const int t0[] = {0};
  const int t1[] = {1};
  rho.apply_kraus(channels::dephasing(GetParam()), t0);
  rho.apply_kraus(channels::amplitude_damping(GetParam()), t1);
  EXPECT_NEAR(rho.trace_real(), 1.0, 1e-10);
  // Diagonal entries are probabilities.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(rho.matrix()(i, i).real(), -1e-12);
    EXPECT_LE(rho.matrix()(i, i).real(), 1.0 + 1e-12);
  }
  EXPECT_LE(rho.purity(), 1.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(ParameterSweep, ChannelCptpP,
                         ::testing::Values(0.0, 0.01, 0.1, 0.25, 0.5, 0.75,
                                           0.9, 0.99, 1.0));

// ---------------------------------------------------------------------------
// Eq. 16 (fidelity from QBERs) holds for every Bell state under every
// single-qubit noise combination in the sweep.

struct BellNoiseCase {
  bell::BellState state;
  double dephase;
  double damp;
  double depol_f;
};

/// Stable test-name suffix from the case's fields, noise strengths in
/// percent, e.g. PsiMinus_dephase10pct_damp20pct_depol95pct. PrintTo
/// prints the same string, so ctest's discovered names carry it instead
/// of the struct's raw bytes.
std::string case_name(const BellNoiseCase& c) {
  static const char* const kStates[] = {"PhiPlus", "PhiMinus", "PsiPlus",
                                        "PsiMinus"};
  const auto pct = [](double x) {
    return std::to_string(std::llround(x * 100));
  };
  return std::string(kStates[static_cast<int>(c.state)]) + "_dephase" +
         pct(c.dephase) + "pct_damp" + pct(c.damp) + "pct_depol" +
         pct(c.depol_f) + "pct";
}

void PrintTo(const BellNoiseCase& c, std::ostream* os) { *os << case_name(c); }

class BellQberP : public ::testing::TestWithParam<BellNoiseCase> {};

TEST_P(BellQberP, FidelityEqualsQberReconstruction) {
  const auto& c = GetParam();
  DensityMatrix rho =
      DensityMatrix::from_pure(bell::state_vector(c.state));
  const int t0[] = {0};
  const int t1[] = {1};
  rho.apply_kraus(channels::dephasing(c.dephase), t0);
  rho.apply_kraus(channels::amplitude_damping(c.damp), t1);
  rho.apply_kraus(channels::depolarizing(c.depol_f), t0);
  const double reconstructed = bell::fidelity_from_qbers(
      bell::qber(rho, c.state, gates::Basis::kX),
      bell::qber(rho, c.state, gates::Basis::kY),
      bell::qber(rho, c.state, gates::Basis::kZ));
  EXPECT_NEAR(bell::fidelity(rho, c.state), reconstructed, 1e-10);
}

std::vector<BellNoiseCase> bell_noise_cases() {
  std::vector<BellNoiseCase> cases;
  for (auto s : {bell::BellState::kPhiPlus, bell::BellState::kPhiMinus,
                 bell::BellState::kPsiPlus, bell::BellState::kPsiMinus}) {
    for (double d : {0.0, 0.1, 0.3}) {
      for (double a : {0.0, 0.2}) {
        cases.push_back({s, d, a, 0.95});
        cases.push_back({s, d, a, 0.7});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllBellStatesAllNoise, BellQberP, ::testing::ValuesIn(bell_noise_cases()),
    [](const ::testing::TestParamInfo<BellNoiseCase>& info) {
      return case_name(info.param);
    });

// ---------------------------------------------------------------------------
// Herald model invariants over the full alpha grid.

class HeraldAlphaP : public ::testing::TestWithParam<double> {
 protected:
  static const hw::HeraldModel& lab_model() {
    static const hw::HeraldModel model(hw::ScenarioParams::lab().herald);
    return model;
  }
  static const hw::HeraldModel& ql_model() {
    static const hw::HeraldModel model(hw::ScenarioParams::ql2020().herald);
    return model;
  }
};

TEST_P(HeraldAlphaP, DistributionIsNormalisedAndStatesValid) {
  for (const hw::HeraldModel* m : {&lab_model(), &ql_model()}) {
    const auto d = m->compute(GetParam(), GetParam());
    EXPECT_NEAR(d.p_fail + d.p_psi_plus + d.p_psi_minus, 1.0, 1e-9);
    EXPECT_GE(d.p_psi_plus, 0.0);
    EXPECT_GE(d.p_psi_minus, 0.0);
    EXPECT_NEAR(d.post_psi_plus.trace_real(), 1.0, 1e-9);
    EXPECT_NEAR(d.post_psi_minus.trace_real(), 1.0, 1e-9);
    EXPECT_TRUE(d.post_psi_plus.matrix().is_hermitian(1e-9));
    EXPECT_LE(d.post_psi_plus.purity(), 1.0 + 1e-9);
    EXPECT_GE(d.fidelity_plus, 0.0);
    EXPECT_LE(d.fidelity_plus, 1.0 + 1e-9);
  }
}

TEST_P(HeraldAlphaP, AsymmetricAlphasStillNormalise) {
  const double a = GetParam();
  const double b = std::min(0.5, a * 1.7 + 0.01);
  const auto d = lab_model().compute(a, b);
  EXPECT_NEAR(d.p_fail + d.p_psi_plus + d.p_psi_minus, 1.0, 1e-9);
  EXPECT_GT(d.p_success(), 0.0);
}

TEST_P(HeraldAlphaP, HeraldedStateBeatsRandomGuess) {
  // Above the dark-count floor the heralded state must carry real
  // entanglement signal: F > 1/4 (random two-qubit state).
  const auto d = lab_model().compute(GetParam(), GetParam());
  EXPECT_GT(d.fidelity_plus, 0.25);
}

INSTANTIATE_TEST_SUITE_P(AlphaGrid, HeraldAlphaP,
                         ::testing::Values(0.005, 0.01, 0.02, 0.05, 0.1,
                                           0.15, 0.2, 0.3, 0.4, 0.5));

// ---------------------------------------------------------------------------
// Packet codecs: encode/decode round-trips across randomised field
// values, and the CRC rejects every single-bit flip.

class PacketFuzzP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PacketFuzzP, DqpRoundTripRandomised) {
  sim::Random rnd(GetParam());
  net::DqpPacket p;
  p.frame_type = static_cast<net::DqpFrameType>(rnd.uniform_int(0, 2));
  p.comm_seq = static_cast<std::uint32_t>(rnd.uniform_int(0, 1 << 30));
  p.aid = {static_cast<std::uint8_t>(rnd.uniform_int(0, 15)),
           static_cast<std::uint32_t>(rnd.uniform_int(0, 1 << 30))};
  p.schedule_cycle = static_cast<std::uint64_t>(rnd.uniform_int(0, 1 << 30));
  p.timeout_cycle = static_cast<std::uint64_t>(rnd.uniform_int(0, 1 << 30));
  p.min_fidelity = rnd.uniform();
  p.purpose_id = static_cast<std::uint16_t>(rnd.uniform_int(0, 65535));
  p.create_id = static_cast<std::uint32_t>(rnd.uniform_int(0, 1 << 30));
  p.num_pairs = static_cast<std::uint16_t>(rnd.uniform_int(1, 65535));
  p.priority = static_cast<std::uint8_t>(rnd.uniform_int(0, 2));
  p.store = rnd.bernoulli(0.5);
  p.atomic = rnd.bernoulli(0.5);
  p.measure_directly = rnd.bernoulli(0.5);
  p.master_request = rnd.bernoulli(0.5);
  p.consecutive = rnd.bernoulli(0.5);
  p.init_virtual_finish = rnd.uniform(0, 1e9);
  p.est_cycles_per_pair = static_cast<std::uint32_t>(rnd.uniform_int(1, 1 << 30));
  p.origin_node = static_cast<std::uint32_t>(rnd.uniform_int(0, 1));
  p.create_time_ns = rnd.uniform_int(0, 1ll << 60);
  p.max_time_ns = rnd.uniform_int(0, 1ll << 60);

  const net::DqpPacket q = net::DqpPacket::decode(p.encode());
  EXPECT_EQ(q.frame_type, p.frame_type);
  EXPECT_EQ(q.comm_seq, p.comm_seq);
  EXPECT_EQ(q.aid, p.aid);
  EXPECT_EQ(q.schedule_cycle, p.schedule_cycle);
  EXPECT_EQ(q.timeout_cycle, p.timeout_cycle);
  EXPECT_DOUBLE_EQ(q.min_fidelity, p.min_fidelity);
  EXPECT_EQ(q.num_pairs, p.num_pairs);
  EXPECT_EQ(q.store, p.store);
  EXPECT_EQ(q.atomic, p.atomic);
  EXPECT_EQ(q.measure_directly, p.measure_directly);
  EXPECT_EQ(q.consecutive, p.consecutive);
  EXPECT_DOUBLE_EQ(q.init_virtual_finish, p.init_virtual_finish);
  EXPECT_EQ(q.create_time_ns, p.create_time_ns);
  EXPECT_EQ(q.max_time_ns, p.max_time_ns);
}

TEST_P(PacketFuzzP, EverySingleBitFlipIsDetected) {
  sim::Random rnd(GetParam() ^ 0xDEADBEEF);
  net::GenPacket p;
  p.node_id = static_cast<std::uint32_t>(rnd.uniform_int(0, 1));
  p.cycle = static_cast<std::uint64_t>(rnd.uniform_int(0, 1ll << 40));
  p.aid = {static_cast<std::uint8_t>(rnd.uniform_int(0, 15)),
           static_cast<std::uint32_t>(rnd.uniform_int(0, 1 << 30))};
  p.alpha = rnd.uniform();
  auto framed = net::seal(net::PacketType::kMhpGen, p.encode());
  for (std::size_t byte = 0; byte < framed.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      framed[byte] ^= static_cast<std::uint8_t>(1 << bit);
      EXPECT_FALSE(net::unseal(framed).has_value())
          << "byte " << byte << " bit " << bit;
      framed[byte] ^= static_cast<std::uint8_t>(1 << bit);
    }
  }
  EXPECT_TRUE(net::unseal(framed).has_value());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PacketFuzzP,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u,
                                           34u));

// ---------------------------------------------------------------------------
// Teleportation is exact for random input states and all Bell resources.

class TeleportP : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TeleportP, RandomStateRandomBellResource) {
  sim::Random rnd(GetParam());
  quantum::QuantumRegistry reg(rnd);
  const auto s = static_cast<bell::BellState>(GetParam() % 4);
  const auto a = reg.create();
  const auto b = reg.create();
  const quantum::QubitId ab[] = {a, b};
  reg.set_state(ab, DensityMatrix::from_pure(bell::state_vector(s)));

  const double theta = rnd.uniform(0, 3.14159);
  const double phi = rnd.uniform(0, 6.28318);
  const auto src = reg.create();
  const quantum::QubitId sid[] = {src};
  reg.apply_unitary(gates::ry(theta), sid);
  reg.apply_unitary(gates::rz(phi), sid);

  quantum::protocols::teleport(reg, src, a, b, s);
  const quantum::QubitId rid[] = {b};
  const std::vector<Complex> expect{
      std::cos(theta / 2) * std::exp(Complex{0, -phi / 2}),
      std::sin(theta / 2) * std::exp(Complex{0, phi / 2})};
  EXPECT_NEAR(reg.peek(rid).fidelity(expect), 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TeleportP,
                         ::testing::Range<std::uint64_t>(100, 124));

// ---------------------------------------------------------------------------
// BBPSSW formula properties across the fidelity range.

class DistillP : public ::testing::TestWithParam<double> {};

TEST_P(DistillP, ImprovesAboveHalfAndStaysInRange) {
  const double f = GetParam();
  const double out = quantum::protocols::bbpssw_output_fidelity(f);
  EXPECT_GE(out, 0.0);
  EXPECT_LE(out, 1.0);
  if (f > 0.5 && f < 1.0) {
    EXPECT_GT(out, f);
  }
  const double p = quantum::protocols::bbpssw_success_probability(f);
  EXPECT_GT(p, 0.0);
  EXPECT_LE(p, 1.0);
}

INSTANTIATE_TEST_SUITE_P(FidelityGrid, DistillP,
                         ::testing::Values(0.3, 0.5, 0.55, 0.6, 0.7, 0.8,
                                           0.9, 0.95, 0.99));

}  // namespace
}  // namespace qlink
