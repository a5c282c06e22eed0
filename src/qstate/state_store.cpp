#include "qstate/state_store.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qstate/bell_algebra.hpp"
#include "quantum/bell.hpp"
#include "quantum/channels.hpp"

namespace qlink::qstate {

using quantum::DensityMatrix;
using quantum::Matrix;
namespace gates = quantum::gates;
namespace ba = bell_algebra;

namespace {

constexpr double kBellTolerance = 1e-9;

/// Insert a zero bit at the position given by `mask` (a power of two):
/// bits below stay, bits at/above shift up one.
inline std::size_t insert_zero(std::size_t v, std::size_t mask) {
  return ((v & ~(mask - 1)) << 1) | (v & (mask - 1));
}

inline bool is_swap_gate(const Matrix& u) {
  if (&u == &gates::swap()) return true;
  return u.rows() == 4 && u.cols() == 4 &&
         u.approx_equal(gates::swap(), 1e-12);
}

/// In-place 2x2 conjugation a -> U a U^dagger on a row-major 2x2.
inline void conj2x2(std::array<Complex, 4>& a, const Matrix& u) {
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  // Left-multiply by U.
  Complex b0 = u00 * a[0] + u01 * a[2];
  Complex b1 = u00 * a[1] + u01 * a[3];
  Complex b2 = u10 * a[0] + u11 * a[2];
  Complex b3 = u10 * a[1] + u11 * a[3];
  // Right-multiply by U^dagger.
  a[0] = b0 * std::conj(u00) + b1 * std::conj(u01);
  a[1] = b0 * std::conj(u10) + b1 * std::conj(u11);
  a[2] = b2 * std::conj(u00) + b3 * std::conj(u01);
  a[3] = b2 * std::conj(u10) + b3 * std::conj(u11);
}

/// a += K b K^dagger for 2x2 operators.
inline void accum_conj2x2(std::array<Complex, 4>& a,
                          const std::array<Complex, 4>& b, const Matrix& k) {
  const Complex k00 = k(0, 0), k01 = k(0, 1), k10 = k(1, 0), k11 = k(1, 1);
  const Complex b0 = k00 * b[0] + k01 * b[2];
  const Complex b1 = k00 * b[1] + k01 * b[3];
  const Complex b2 = k10 * b[0] + k11 * b[2];
  const Complex b3 = k10 * b[1] + k11 * b[3];
  a[0] += b0 * std::conj(k00) + b1 * std::conj(k01);
  a[1] += b0 * std::conj(k10) + b1 * std::conj(k11);
  a[2] += b2 * std::conj(k00) + b3 * std::conj(k01);
  a[3] += b2 * std::conj(k10) + b3 * std::conj(k11);
}

void check_no_duplicates(std::span<const QubitId> qubits) {
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    for (std::size_t j = i + 1; j < qubits.size(); ++j) {
      if (qubits[i] == qubits[j]) {
        throw std::invalid_argument("merge: duplicate qubit");
      }
    }
  }
}

}  // namespace

const char* backend_kind_name(BackendKind kind) noexcept {
  switch (kind) {
    case BackendKind::kDense:
      return "dense";
    case BackendKind::kBellDiagonal:
      return "bell-diagonal";
  }
  return "?";
}

std::optional<BackendKind> parse_backend_kind(std::string_view name) {
  if (name == "dense") return BackendKind::kDense;
  if (name == "bell" || name == "bell-diagonal") {
    return BackendKind::kBellDiagonal;
  }
  return std::nullopt;
}

StateStore::StateStore(sim::Random& random, BackendKind kind)
    : random_(random),
      kind_(kind),
      structured_(kind == BackendKind::kBellDiagonal) {}

// ---------------------------------------------------------------------------
// Slot / group bookkeeping

const StateStore::Slot& StateStore::slot(QubitId q) const {
  if (q >= slots_.size() || slots_[q].group == kNoGroup) {
    throw std::invalid_argument("QuantumRegistry: unknown qubit");
  }
  return slots_[q];
}

std::uint32_t StateStore::alloc_group() {
  if (!free_groups_.empty()) {
    const std::uint32_t gi = free_groups_.back();
    free_groups_.pop_back();
    return gi;
  }
  groups_.emplace_back();
  return static_cast<std::uint32_t>(groups_.size() - 1);
}

void StateStore::free_group(std::uint32_t gi) {
  Group& g = groups_[gi];
  if (!g.rho.empty()) pool_.release(std::move(g.rho));
  g.rho.clear();
  g.members.clear();  // keeps capacity for reuse
  g.rep = Rep::kSingle;
  g.nq = 1;
  free_groups_.push_back(gi);
}

void StateStore::make_singleton(QubitId q) {
  const std::uint32_t gi = alloc_group();
  Group& g = groups_[gi];
  g.rep = Rep::kSingle;
  g.c2 = {Complex{1.0, 0.0}, Complex{0.0, 0.0}, Complex{0.0, 0.0},
          Complex{0.0, 0.0}};
  g.nq = 1;
  g.members.assign(1, q);
  slots_[q] = Slot{gi, 0};
}

QubitId StateStore::create() {
  const QubitId id = next_id_++;
  if (id >= slots_.size()) slots_.resize(id + 1);
  make_singleton(id);
  ++live_;
  return id;
}

bool StateStore::exists(QubitId q) const {
  return q < slots_.size() && slots_[q].group != kNoGroup;
}

std::size_t StateStore::group_size(QubitId q) const {
  return group_of(q).members.size();
}

void StateStore::extract(QubitId q) {
  const Slot s = slot(q);
  Group& g = groups_[s.group];
  if (g.members.size() == 1) return;

  if (g.rep == Rep::kPair) {
    // The partner of any Bell-diagonal pair is left exactly maximally
    // mixed (what the dense partial trace computes).
    const QubitId partner = g.members[1 - s.index];
    g.rep = Rep::kSingle;
    g.c2 = {Complex{0.5, 0.0}, Complex{0.0, 0.0}, Complex{0.0, 0.0},
            Complex{0.5, 0.0}};
    g.nq = 1;
    g.members.assign(1, partner);
    slots_[partner] = Slot{s.group, 0};
    ++stats_.fast_ops;
  } else {
    dense_remove_qubit(s.group, static_cast<int>(s.index));
  }
  make_singleton(q);
}

void StateStore::discard(QubitId q) {
  extract(q);
  free_group(slots_[q].group);
  slots_[q].group = kNoGroup;
  --live_;
}

void StateStore::reset(QubitId q) {
  extract(q);
  Group& g = group_of(q);
  if (!g.rho.empty()) pool_.release(std::move(g.rho));
  g.rho.clear();
  g.rep = Rep::kSingle;
  g.nq = 1;
  g.c2 = {Complex{1.0, 0.0}, Complex{0.0, 0.0}, Complex{0.0, 0.0},
          Complex{0.0, 0.0}};
}

// ---------------------------------------------------------------------------
// Materialisation, promotion, merge

std::vector<Complex> StateStore::materialize(const Group& g) const {
  auto& pool = const_cast<BufferPool&>(pool_);
  switch (g.rep) {
    case Rep::kSingle: {
      std::vector<Complex> out = pool.acquire(4);
      std::copy(g.c2.begin(), g.c2.end(), out.begin());
      return out;
    }
    case Rep::kPair: {
      // Promotion path (cold): reuse the canonical conversion.
      const DensityMatrix dm = quantum::bell::from_coefficients(g.bell);
      std::vector<Complex> out = pool.acquire(16);
      for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) out[i * 4 + j] = dm.matrix()(i, j);
      }
      return out;
    }
    case Rep::kDense: {
      std::vector<Complex> out = pool.acquire(g.rho.size());
      std::copy(g.rho.begin(), g.rho.end(), out.begin());
      return out;
    }
  }
  throw std::logic_error("materialize: invalid representation");
}

DensityMatrix StateStore::materialize_dm(const Group& g) const {
  if (g.rep == Rep::kPair) {
    return quantum::bell::from_coefficients(g.bell);
  }
  const std::size_t d = std::size_t{1} << g.nq;
  Matrix m(d, d);
  if (g.rep == Rep::kSingle) {
    m(0, 0) = g.c2[0];
    m(0, 1) = g.c2[1];
    m(1, 0) = g.c2[2];
    m(1, 1) = g.c2[3];
  } else {
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) m(i, j) = g.rho[i * d + j];
    }
  }
  return DensityMatrix::from_matrix(std::move(m));
}

void StateStore::promote(std::uint32_t gi) {
  Group& g = groups_[gi];
  if (g.rep == Rep::kDense) return;
  if (g.rep == Rep::kPair) ++stats_.promotions;
  g.rho = materialize(g);
  g.rep = Rep::kDense;
}

std::uint32_t StateStore::merge(std::span<const QubitId> qubits,
                                std::vector<int>& indices) {
  if (qubits.empty()) throw std::invalid_argument("merge: no qubits");
  check_no_duplicates(qubits);

  // Collect the distinct groups in first-seen order.
  std::vector<std::uint32_t> group_ids;
  for (QubitId q : qubits) {
    const std::uint32_t gi = slot(q).group;
    if (std::find(group_ids.begin(), group_ids.end(), gi) ==
        group_ids.end()) {
      group_ids.push_back(gi);
    }
  }

  const std::uint32_t target = group_ids.front();
  if (group_ids.size() > 1 || groups_[target].rep != Rep::kDense) {
    promote(target);
  }
  for (std::size_t k = 1; k < group_ids.size(); ++k) {
    Group& t = groups_[target];
    Group& g = groups_[group_ids[k]];
    promote(group_ids[k]);

    // Kronecker product t (x) g into a fresh pooled buffer.
    const std::size_t dt = std::size_t{1} << t.nq;
    const std::size_t dg = std::size_t{1} << g.nq;
    const std::size_t d = dt * dg;
    std::vector<Complex> out = pool_.acquire(d * d);
    for (std::size_t i1 = 0; i1 < dt; ++i1) {
      for (std::size_t j1 = 0; j1 < dt; ++j1) {
        const Complex a = t.rho[i1 * dt + j1];
        for (std::size_t i2 = 0; i2 < dg; ++i2) {
          for (std::size_t j2 = 0; j2 < dg; ++j2) {
            out[(i1 * dg + i2) * d + (j1 * dg + j2)] =
                a * g.rho[i2 * dg + j2];
          }
        }
      }
    }
    pool_.release(std::move(t.rho));
    t.rho = std::move(out);

    const int offset = t.nq;
    t.nq += g.nq;
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      const QubitId q = g.members[i];
      t.members.push_back(q);
      slots_[q] = Slot{target,
                       static_cast<std::uint32_t>(offset + i)};
    }
    g.members.clear();  // detach before freeing (members moved over)
    free_group(group_ids[k]);
  }

  indices.clear();
  indices.reserve(qubits.size());
  for (QubitId q : qubits) indices.push_back(static_cast<int>(slot(q).index));
  return target;
}

// ---------------------------------------------------------------------------
// Dense in-place kernels

void StateStore::dense_apply_1q(Group& g, const Matrix& u, int qubit) {
  const std::size_t d = std::size_t{1} << g.nq;
  const std::size_t m = std::size_t{1} << (g.nq - 1 - qubit);
  const Complex u00 = u(0, 0), u01 = u(0, 1), u10 = u(1, 0), u11 = u(1, 1);
  Complex* rho = g.rho.data();

  for (std::size_t r = 0; r < d / 2; ++r) {
    const std::size_t i0 = insert_zero(r, m);
    Complex* rowA = rho + i0 * d;
    Complex* rowB = rho + (i0 | m) * d;
    for (std::size_t j = 0; j < d; ++j) {
      const Complex a = rowA[j], b = rowB[j];
      rowA[j] = u00 * a + u01 * b;
      rowB[j] = u10 * a + u11 * b;
    }
  }
  const Complex c00 = std::conj(u00), c01 = std::conj(u01);
  const Complex c10 = std::conj(u10), c11 = std::conj(u11);
  for (std::size_t r = 0; r < d / 2; ++r) {
    const std::size_t j0 = insert_zero(r, m);
    const std::size_t j1 = j0 | m;
    for (std::size_t i = 0; i < d; ++i) {
      Complex* row = rho + i * d;
      const Complex a = row[j0], b = row[j1];
      row[j0] = a * c00 + b * c01;
      row[j1] = a * c10 + b * c11;
    }
  }
}

void StateStore::dense_apply_2q(Group& g, const Matrix& u, int q0,
                                int q1) {
  const std::size_t d = std::size_t{1} << g.nq;
  // Sub-index convention matches DensityMatrix::expand_operator: the
  // first target is the more significant sub-bit.
  const std::size_t m0 = std::size_t{1} << (g.nq - 1 - q0);
  const std::size_t m1 = std::size_t{1} << (g.nq - 1 - q1);
  const std::size_t lo = std::min(m0, m1);
  const std::size_t hi = std::max(m0, m1);
  Complex* rho = g.rho.data();

  std::array<std::size_t, 4> off;
  for (int s = 0; s < 4; ++s) {
    off[s] = ((s & 2) ? m0 : 0) | ((s & 1) ? m1 : 0);
  }

  std::array<Complex, 4> v, w;
  for (std::size_t r = 0; r < d / 4; ++r) {
    const std::size_t base = insert_zero(insert_zero(r, lo), hi);
    for (std::size_t j = 0; j < d; ++j) {
      for (int s = 0; s < 4; ++s) v[s] = rho[(base | off[s]) * d + j];
      for (int s = 0; s < 4; ++s) {
        w[s] = u(s, 0) * v[0] + u(s, 1) * v[1] + u(s, 2) * v[2] +
               u(s, 3) * v[3];
      }
      for (int s = 0; s < 4; ++s) rho[(base | off[s]) * d + j] = w[s];
    }
  }
  for (std::size_t r = 0; r < d / 4; ++r) {
    const std::size_t base = insert_zero(insert_zero(r, lo), hi);
    for (std::size_t i = 0; i < d; ++i) {
      Complex* row = rho + i * d;
      for (int s = 0; s < 4; ++s) v[s] = row[base | off[s]];
      for (int s = 0; s < 4; ++s) {
        w[s] = v[0] * std::conj(u(s, 0)) + v[1] * std::conj(u(s, 1)) +
               v[2] * std::conj(u(s, 2)) + v[3] * std::conj(u(s, 3));
      }
      for (int s = 0; s < 4; ++s) row[base | off[s]] = w[s];
    }
  }
}

void StateStore::dense_apply_generic(Group& g, const Matrix& u,
                                     std::span<const int> targets) {
  DensityMatrix dm = materialize_dm(g);
  dm.apply_unitary(u, targets);
  const std::size_t d = std::size_t{1} << g.nq;
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) g.rho[i * d + j] = dm.matrix()(i, j);
  }
}

void StateStore::dense_kraus(Group& g, std::span<const Matrix> kraus,
                             std::span<const int> targets) {
  if (kraus.empty()) throw std::invalid_argument("apply_kraus: empty set");
  const std::size_t k = targets.size();
  const std::size_t d = std::size_t{1} << g.nq;
  if (k > 2) {
    DensityMatrix dm = materialize_dm(g);
    dm.apply_kraus(kraus, targets);
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        g.rho[i * d + j] = dm.matrix()(i, j);
      }
    }
    return;
  }

  std::vector<Complex> original = std::move(g.rho);
  g.rho = pool_.acquire(d * d);
  std::vector<Complex> acc = pool_.acquire_zeroed(d * d);
  for (const Matrix& op : kraus) {
    std::copy(original.begin(), original.end(), g.rho.begin());
    if (k == 1) {
      dense_apply_1q(g, op, targets[0]);
    } else {
      dense_apply_2q(g, op, targets[0], targets[1]);
    }
    for (std::size_t i = 0; i < d * d; ++i) acc[i] += g.rho[i];
  }
  pool_.release(std::move(original));
  pool_.release(std::move(g.rho));
  g.rho = std::move(acc);
}

void StateStore::dense_dephase(Group& g, int qubit, double p) {
  const std::size_t d = std::size_t{1} << g.nq;
  const std::size_t m = std::size_t{1} << (g.nq - 1 - qubit);
  const double factor = 1.0 - 2.0 * p;
  Complex* rho = g.rho.data();
  for (std::size_t i = 0; i < d; ++i) {
    const std::size_t bi = i & m;
    Complex* row = rho + i * d;
    for (std::size_t j = 0; j < d; ++j) {
      if ((j & m) != bi) row[j] *= factor;
    }
  }
}

void StateStore::dense_depolarize(Group& g, int qubit, double f) {
  const std::size_t d = std::size_t{1} << g.nq;
  const std::size_t m = std::size_t{1} << (g.nq - 1 - qubit);
  const double e = (1.0 - f) / 3.0;
  const double keep = f + e;
  const double cross = 2.0 * e;
  const double off = f - e;
  Complex* rho = g.rho.data();
  for (std::size_t ri = 0; ri < d / 2; ++ri) {
    const std::size_t i0 = insert_zero(ri, m);
    const std::size_t i1 = i0 | m;
    for (std::size_t rj = 0; rj < d / 2; ++rj) {
      const std::size_t j0 = insert_zero(rj, m);
      const std::size_t j1 = j0 | m;
      const Complex v00 = rho[i0 * d + j0];
      const Complex v11 = rho[i1 * d + j1];
      rho[i0 * d + j0] = keep * v00 + cross * v11;
      rho[i1 * d + j1] = keep * v11 + cross * v00;
      rho[i0 * d + j1] *= off;
      rho[i1 * d + j0] *= off;
    }
  }
}

void StateStore::dense_decay(Group& g, int qubit, double gamma,
                             double pd) {
  const std::size_t d = std::size_t{1} << g.nq;
  const std::size_t m = std::size_t{1} << (g.nq - 1 - qubit);
  const double keep = 1.0 - gamma;
  const double off = std::sqrt(keep) * (1.0 - 2.0 * pd);
  Complex* rho = g.rho.data();
  for (std::size_t ri = 0; ri < d / 2; ++ri) {
    const std::size_t i0 = insert_zero(ri, m);
    const std::size_t i1 = i0 | m;
    for (std::size_t rj = 0; rj < d / 2; ++rj) {
      const std::size_t j0 = insert_zero(rj, m);
      const std::size_t j1 = j0 | m;
      const Complex v11 = rho[i1 * d + j1];
      rho[i0 * d + j0] += gamma * v11;
      rho[i1 * d + j1] = keep * v11;
      rho[i0 * d + j1] *= off;
      rho[i1 * d + j0] *= off;
    }
  }
}

void StateStore::dense_remove_qubit(std::uint32_t gi, int qubit) {
  Group& g = groups_[gi];
  const std::size_t d = std::size_t{1} << g.nq;
  const std::size_t dr = d / 2;
  const std::size_t m = std::size_t{1} << (g.nq - 1 - qubit);
  std::vector<Complex> out = pool_.acquire(dr * dr);
  for (std::size_t i = 0; i < dr; ++i) {
    const std::size_t i0 = insert_zero(i, m);
    for (std::size_t j = 0; j < dr; ++j) {
      const std::size_t j0 = insert_zero(j, m);
      out[i * dr + j] =
          g.rho[i0 * d + j0] + g.rho[(i0 | m) * d + (j0 | m)];
    }
  }
  pool_.release(std::move(g.rho));
  g.rho = std::move(out);
  g.members.erase(g.members.begin() + qubit);
  --g.nq;
  for (std::size_t i = 0; i < g.members.size(); ++i) {
    slots_[g.members[i]].index = static_cast<std::uint32_t>(i);
  }
  if (g.nq == 1) {
    // Collapse to the inline representation: singleton groups never
    // carry a heap buffer.
    g.c2 = {g.rho[0], g.rho[1], g.rho[2], g.rho[3]};
    pool_.release(std::move(g.rho));
    g.rho.clear();
    g.rep = Rep::kSingle;
  }
}

int StateStore::dense_measure(Group& g, QubitId q,
                              quantum::gates::Basis basis) {
  const Slot s = slots_[q];
  if (basis != gates::Basis::kZ) {
    dense_apply_1q(g, gates::basis_change(basis),
                   static_cast<int>(s.index));
  }
  const std::size_t d = std::size_t{1} << g.nq;
  const std::size_t m = std::size_t{1} << (g.nq - 1 - s.index);
  double prob0 = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    if ((i & m) == 0) prob0 += g.rho[i * d + i].real();
  }
  const int outcome = random_.bernoulli(1.0 - prob0) ? 1 : 0;

  const std::size_t v = outcome ? m : 0;
  double p = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    if ((i & m) == v) p += g.rho[i * d + i].real();
  }
  if (p >= 1e-15) {
    const double inv = 1.0 / p;
    for (std::size_t i = 0; i < d; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        if ((i & m) != v || (j & m) != v) {
          g.rho[i * d + j] = Complex{0.0, 0.0};
        } else {
          g.rho[i * d + j] *= inv;
        }
      }
    }
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Public operations

void StateStore::apply_unitary(const Matrix& u,
                               std::span<const QubitId> qubits) {
  if (qubits.empty()) throw std::invalid_argument("merge: no qubits");
  if (!u.is_square() ||
      u.rows() != (std::size_t{1} << qubits.size())) {
    throw std::invalid_argument("expand_operator: operator/target mismatch");
  }
  check_no_duplicates(qubits);

  if (qubits.size() == 1) {
    const Slot s = slot(qubits[0]);
    Group& g = groups_[s.group];
    if (g.rep == Rep::kSingle) {
      conj2x2(g.c2, u);
      ++stats_.fast_ops;
      return;
    }
    if (g.rep == Rep::kPair) {
      if (const auto pauli = ba::match_pauli_unitary(u)) {
        g.bell = ba::apply_pauli(g.bell, *pauli);
        ++stats_.fast_ops;
        return;
      }
      promote(s.group);
    }
    dense_apply_1q(groups_[s.group], u, static_cast<int>(s.index));
    ++stats_.dense_ops;
    return;
  }

  if (qubits.size() == 2 && structured_ && is_swap_gate(u)) {
    const Slot sa = slot(qubits[0]);
    const Slot sb = slot(qubits[1]);
    if (sa.group != sb.group) {
      // SWAP across groups is pure relabeling: exchange the two
      // qubits' roles without touching any amplitudes.
      groups_[sa.group].members[sa.index] = qubits[1];
      groups_[sb.group].members[sb.index] = qubits[0];
      std::swap(slots_[qubits[0]], slots_[qubits[1]]);
      ++stats_.fast_ops;
      return;
    }
    if (groups_[sa.group].rep == Rep::kPair) {
      // Bell-diagonal states are exchange symmetric: SWAP is identity.
      ++stats_.fast_ops;
      return;
    }
  }

  std::vector<int> idx;
  const std::uint32_t gi = merge(qubits, idx);
  if (qubits.size() == 2) {
    dense_apply_2q(groups_[gi], u, idx[0], idx[1]);
  } else {
    dense_apply_generic(groups_[gi], u, idx);
  }
  ++stats_.dense_ops;
}

void StateStore::apply_kraus(std::span<const Matrix> kraus,
                             std::span<const QubitId> qubits) {
  if (kraus.empty()) throw std::invalid_argument("apply_kraus: empty set");
  if (qubits.empty()) throw std::invalid_argument("merge: no qubits");
  const std::size_t dim = std::size_t{1} << qubits.size();
  for (const Matrix& k : kraus) {
    if (!k.is_square() || k.rows() != dim) {
      throw std::invalid_argument(
          "expand_operator: operator/target mismatch");
    }
  }
  check_no_duplicates(qubits);

  if (qubits.size() == 1) {
    const Slot s = slot(qubits[0]);
    Group& g = groups_[s.group];
    if (g.rep == Rep::kSingle) {
      std::array<Complex, 4> acc{};
      for (const Matrix& k : kraus) accum_conj2x2(acc, g.c2, k);
      g.c2 = acc;
      ++stats_.fast_ops;
      return;
    }
    if (g.rep == Rep::kPair) {
      const auto weights = ba::pauli_channel_weights(kraus);
      const double total =
          weights.w[0] + weights.w[1] + weights.w[2] + weights.w[3];
      if (std::abs(total - 1.0) <= 1e-9) {
        g.bell = ba::apply_pauli_channel(g.bell, weights.w);
        ++stats_.fast_ops;
        return;
      }
      promote(s.group);
    }
    const int idx[] = {static_cast<int>(s.index)};
    dense_kraus(groups_[s.group], kraus, idx);
    ++stats_.dense_ops;
    return;
  }

  std::vector<int> idx;
  const std::uint32_t gi = merge(qubits, idx);
  dense_kraus(groups_[gi], kraus, idx);
  ++stats_.dense_ops;
}

void StateStore::dephase(QubitId q, double p) {
  if (p < -1e-12 || p > 1.0 + 1e-12) {
    throw std::invalid_argument("dephasing: out of [0,1]");
  }
  p = std::clamp(p, 0.0, 1.0);
  const Slot s = slot(q);
  Group& g = groups_[s.group];
  switch (g.rep) {
    case Rep::kSingle: {
      const double factor = 1.0 - 2.0 * p;
      g.c2[1] *= factor;
      g.c2[2] *= factor;
      ++stats_.fast_ops;
      return;
    }
    case Rep::kPair: {
      const auto& b = g.bell;
      g.bell = {(1.0 - p) * b[0] + p * b[1], (1.0 - p) * b[1] + p * b[0],
                (1.0 - p) * b[2] + p * b[3], (1.0 - p) * b[3] + p * b[2]};
      ++stats_.fast_ops;
      return;
    }
    case Rep::kDense:
      dense_dephase(g, static_cast<int>(s.index), p);
      ++stats_.dense_ops;
      return;
  }
}

void StateStore::depolarize(QubitId q, double f) {
  if (f < -1e-12 || f > 1.0 + 1e-12) {
    throw std::invalid_argument("depolarizing: out of [0,1]");
  }
  f = std::clamp(f, 0.0, 1.0);
  const double e = (1.0 - f) / 3.0;
  const Slot s = slot(q);
  Group& g = groups_[s.group];
  switch (g.rep) {
    case Rep::kSingle: {
      const double t = (g.c2[0] + g.c2[3]).real();
      const double shrink = f - e;
      for (auto& c : g.c2) c *= shrink;
      g.c2[0] += 2.0 * e * t;
      g.c2[3] += 2.0 * e * t;
      ++stats_.fast_ops;
      return;
    }
    case Rep::kPair: {
      g.bell = ba::apply_pauli_channel(g.bell, {f, e, e, e});
      ++stats_.fast_ops;
      return;
    }
    case Rep::kDense:
      dense_depolarize(g, static_cast<int>(s.index), f);
      ++stats_.dense_ops;
      return;
  }
}

void StateStore::decay(QubitId q, double t_ns, double t1_ns,
                       double t2_ns) {
  const auto rates = quantum::channels::t1t2_rates(t_ns, t1_ns, t2_ns);
  if (rates.gamma == 0.0 && rates.dephase_p == 0.0) {
    (void)slot(q);  // still validate the qubit
    return;
  }
  const Slot s = slot(q);
  Group& g = groups_[s.group];
  switch (g.rep) {
    case Rep::kSingle: {
      const double keep = 1.0 - rates.gamma;
      const double off =
          std::sqrt(keep) * (1.0 - 2.0 * rates.dephase_p);
      const Complex v11 = g.c2[3];
      g.c2[0] += rates.gamma * v11;
      g.c2[3] = keep * v11;
      g.c2[1] *= off;
      g.c2[2] *= off;
      ++stats_.fast_ops;
      return;
    }
    case Rep::kPair: {
      if (rates.gamma == 0.0) {
        dephase(q, rates.dephase_p);  // exact: pure dephasing
        return;
      }
      g.bell = ba::apply_pauli_channel(
          g.bell, ba::t1t2_twirl_weights(rates.gamma, rates.dephase_p));
      ++stats_.fast_ops;
      return;
    }
    case Rep::kDense:
      dense_decay(g, static_cast<int>(s.index), rates.gamma,
                  rates.dephase_p);
      ++stats_.dense_ops;
      return;
  }
}

int StateStore::measure(QubitId q, quantum::gates::Basis basis) {
  const Slot s = slot(q);
  Group& g = groups_[s.group];

  if (g.rep == Rep::kSingle) {
    if (basis != gates::Basis::kZ) conj2x2(g.c2, gates::basis_change(basis));
    const double prob0 = g.c2[0].real();
    const int outcome = random_.bernoulli(1.0 - prob0) ? 1 : 0;
    // Historical convention for an unentangled qubit: the collapse and
    // the outcome-conditional X leave it in |0> either way (the fresh
    // |0>-then-X path only runs when the qubit left a larger group).
    g.c2 = {Complex{1.0, 0.0}, Complex{0.0, 0.0}, Complex{0.0, 0.0},
            Complex{0.0, 0.0}};
    ++stats_.fast_ops;
    return outcome;
  }

  if (g.rep == Rep::kPair) {
    const int outcome = random_.bernoulli(1.0 - 0.5) ? 1 : 0;
    pair_measure_collapse(s.group, q, basis, outcome);
    ++stats_.fast_ops;
    return outcome;
  }

  const int outcome = dense_measure(g, q, basis);
  ++stats_.dense_ops;
  if (g.members.size() > 1) {
    dense_remove_qubit(s.group, static_cast<int>(slots_[q].index));
    make_singleton(q);
    if (outcome == 1) {
      Group& fresh = group_of(q);
      fresh.c2 = {Complex{0.0, 0.0}, Complex{0.0, 0.0}, Complex{0.0, 0.0},
                  Complex{1.0, 0.0}};
    }
  } else {
    // Singleton dense group: mirror the historical measure() exactly
    // (collapse + unconditional frame reset leaves |0>).
    g.c2 = {Complex{1.0, 0.0}, Complex{0.0, 0.0}, Complex{0.0, 0.0},
            Complex{0.0, 0.0}};
    g.rep = Rep::kSingle;
    if (!g.rho.empty()) {
      pool_.release(std::move(g.rho));
      g.rho.clear();
    }
  }
  return outcome;
}

void StateStore::pair_measure_collapse(std::uint32_t gi, QubitId q,
                                       quantum::gates::Basis basis,
                                       int outcome) {
  Group& g = groups_[gi];
  const auto& p = g.bell;
  const double tx = p[0] - p[1] + p[2] - p[3];
  const double ty = -p[0] + p[1] + p[2] - p[3];
  const double tz = p[0] + p[1] - p[2] - p[3];
  const double sgn = outcome == 0 ? 1.0 : -1.0;

  const QubitId partner = g.members[slots_[q].index == 0 ? 1 : 0];
  // Partner collapses to (I + s * t_b * sigma_b) / 2 in the
  // computational frame (the basis rotation only ever touched the
  // measured qubit).
  std::array<Complex, 4> c2{Complex{0.5, 0.0}, Complex{0.0, 0.0},
                            Complex{0.0, 0.0}, Complex{0.5, 0.0}};
  switch (basis) {
    case gates::Basis::kX: {
      const double v = sgn * tx / 2.0;
      c2[1] = Complex{v, 0.0};
      c2[2] = Complex{v, 0.0};
      break;
    }
    case gates::Basis::kY: {
      const double v = sgn * ty / 2.0;
      c2[1] = Complex{0.0, -v};
      c2[2] = Complex{0.0, v};
      break;
    }
    case gates::Basis::kZ: {
      const double v = sgn * tz / 2.0;
      c2[0] += Complex{v, 0.0};
      c2[3] -= Complex{v, 0.0};
      break;
    }
  }

  // Reuse the pair's group for the partner.
  g.rep = Rep::kSingle;
  g.c2 = c2;
  g.nq = 1;
  g.members.assign(1, partner);
  slots_[partner] = Slot{gi, 0};

  // The measured qubit left a larger group: fresh |outcome> state.
  make_singleton(q);
  if (outcome == 1) {
    Group& fresh = group_of(q);
    fresh.c2 = {Complex{0.0, 0.0}, Complex{0.0, 0.0}, Complex{0.0, 0.0},
                Complex{1.0, 0.0}};
  }
}

std::pair<int, int> StateStore::bell_measure(QubitId control,
                                             QubitId target) {
  const Slot sc = slot(control);
  const Slot st = slot(target);
  if (structured_ && sc.group != st.group &&
      groups_[sc.group].rep == Rep::kPair &&
      groups_[st.group].rep == Rep::kPair) {
    // Closed-form entanglement swap. The Bell measurement outcome is
    // exactly uniform for Bell-diagonal inputs; consume the Random
    // stream exactly like the two dense Z-measurements would.
    const int m1 = random_.bernoulli(1.0 - 0.5) ? 1 : 0;
    const int m2 = random_.bernoulli(1.0 - 0.5) ? 1 : 0;

    Group& gc = groups_[sc.group];
    Group& gt = groups_[st.group];
    const QubitId u = gc.members[sc.index == 0 ? 1 : 0];
    const QubitId v = gt.members[st.index == 0 ? 1 : 0];

    auto coeffs = ba::swap_coefficients(gc.bell, gt.bell, m1, m2);
    const double total = coeffs[0] + coeffs[1] + coeffs[2] + coeffs[3];
    if (total > 0.0) {
      for (double& c : coeffs) c /= total;
    }

    // The control's group becomes the (u, v) pair; the target's group
    // is retired; both measured qubits get fresh collapsed states.
    gc.rep = Rep::kPair;
    gc.bell = coeffs;
    gc.nq = 2;
    gc.members.assign({u, v});
    slots_[u] = Slot{sc.group, 0};
    slots_[v] = Slot{sc.group, 1};
    gt.members.clear();
    free_group(st.group);

    make_singleton(control);
    if (m1 == 1) {
      group_of(control).c2 = {Complex{0.0, 0.0}, Complex{0.0, 0.0},
                              Complex{0.0, 0.0}, Complex{1.0, 0.0}};
    }
    make_singleton(target);
    if (m2 == 1) {
      group_of(target).c2 = {Complex{0.0, 0.0}, Complex{0.0, 0.0},
                             Complex{0.0, 0.0}, Complex{1.0, 0.0}};
    }
    stats_.fast_ops += 4;
    return {m1, m2};
  }

  // Reference path: the explicit circuit (identical Random usage).
  const QubitId pair_q[] = {control, target};
  apply_unitary(gates::cnot(), pair_q);
  const QubitId ctrl_q[] = {control};
  apply_unitary(gates::h(), ctrl_q);
  const int m1 = measure(control, gates::Basis::kZ);
  const int m2 = measure(target, gates::Basis::kZ);
  return {m1, m2};
}

void StateStore::set_state(std::span<const QubitId> qubits,
                           const DensityMatrix& dm) {
  if (static_cast<int>(qubits.size()) != dm.num_qubits()) {
    throw std::invalid_argument("set_state: qubit/state size mismatch");
  }
  check_no_duplicates(qubits);

  const auto listed = [&qubits](QubitId q) {
    return std::find(qubits.begin(), qubits.end(), q) != qubits.end();
  };
  // A fresh install severs every old correlation, so a source group
  // whose members are all being overwritten is retired wholesale — no
  // partial trace needed. Groups that also hold unlisted qubits lose
  // the listed ones one by one (the partner keeps its reduced state).
  // Remember whether a dense group is retired whole: if the new state
  // then takes the structured pair path, that promoted group just got
  // re-twirled back onto the Bell-diagonal manifold (a demotion —
  // partially covered dense groups survive dense and don't count).
  bool had_dense_source = false;
  for (QubitId q : qubits) {
    const Group& g = group_of(q);  // validates q
    const bool covered =
        std::all_of(g.members.begin(), g.members.end(), listed);
    if (g.rep == Rep::kDense && covered) had_dense_source = true;
    if (!covered && g.members.size() > 1) extract(q);
  }
  // Retire the (now singleton or fully covered) source groups and form
  // one fresh group holding the installed state.
  std::vector<std::uint32_t> retired;
  for (QubitId q : qubits) {
    const std::uint32_t gi = slots_[q].group;
    if (std::find(retired.begin(), retired.end(), gi) == retired.end()) {
      free_group(gi);
      retired.push_back(gi);
    }
  }

  const std::uint32_t gi = alloc_group();
  Group& g = groups_[gi];
  g.nq = static_cast<int>(qubits.size());
  g.members.assign(qubits.begin(), qubits.end());
  for (std::size_t i = 0; i < qubits.size(); ++i) {
    slots_[qubits[i]] = Slot{gi, static_cast<std::uint32_t>(i)};
  }

  const std::size_t d = std::size_t{1} << g.nq;
  double trace = 0.0;
  for (std::size_t i = 0; i < d; ++i) trace += dm.matrix()(i, i).real();
  if (trace < 1e-15) throw std::logic_error("renormalize: zero trace");
  const double inv = 1.0 / trace;

  if (g.nq == 1) {
    g.rep = Rep::kSingle;
    g.c2 = {dm.matrix()(0, 0) * inv, dm.matrix()(0, 1) * inv,
            dm.matrix()(1, 0) * inv, dm.matrix()(1, 1) * inv};
    ++stats_.fast_ops;
    return;
  }
  if (g.nq == 2 && structured_ && try_set_pair(gi, dm)) {
    if (had_dense_source) ++stats_.demotions;
    ++stats_.fast_ops;
    return;
  }
  g.rep = Rep::kDense;
  g.rho = pool_.acquire(d * d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      g.rho[i * d + j] = dm.matrix()(i, j) * inv;
    }
  }
  ++stats_.dense_ops;
}

bool StateStore::try_set_pair(std::uint32_t gi, const DensityMatrix& dm) {
  // Accept only (numerically) Bell-diagonal installs; anything else is
  // outside the structured manifold and stays dense.
  if (quantum::bell::off_diagonal_residual(dm) > kBellTolerance) {
    return false;
  }
  auto p = quantum::bell::diagonal_coefficients(dm);
  const double total = p[0] + p[1] + p[2] + p[3];
  if (total < 1e-15) return false;
  for (double& c : p) c = std::max(0.0, c / total);
  Group& g = groups_[gi];
  g.rep = Rep::kPair;
  g.bell = p;
  return true;
}

DensityMatrix StateStore::peek(std::span<const QubitId> qubits) const {
  if (qubits.empty()) throw std::invalid_argument("peek: no qubits");
  // Qubits in different groups are uncorrelated: the reduced state is
  // the tensor of per-group reductions (same algorithm as the
  // historical registry, over materialised group states).
  DensityMatrix out(0);
  bool first = true;
  std::vector<QubitId> pending(qubits.begin(), qubits.end());
  std::vector<QubitId> produced_order;

  while (!pending.empty()) {
    const std::uint32_t gi = slot(pending.front()).group;
    const Group& g = groups_[gi];
    std::vector<QubitId> here;
    std::vector<QubitId> rest;
    for (QubitId q : pending) {
      (slot(q).group == gi ? here : rest).push_back(q);
    }
    pending = std::move(rest);

    std::vector<int> remove;
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      if (std::find(here.begin(), here.end(), g.members[i]) == here.end()) {
        remove.push_back(static_cast<int>(i));
      }
    }
    DensityMatrix reduced = materialize_dm(g);
    if (!remove.empty()) reduced = reduced.partial_trace(remove);

    std::vector<QubitId> kept_order;
    for (QubitId m : g.members) {
      if (std::find(here.begin(), here.end(), m) != here.end()) {
        kept_order.push_back(m);
      }
    }
    std::vector<int> perm;
    for (QubitId q : here) {
      const auto it = std::find(kept_order.begin(), kept_order.end(), q);
      perm.push_back(static_cast<int>(it - kept_order.begin()));
    }
    reduced = reduced.permuted(perm);

    out = first ? reduced : out.tensor(reduced);
    first = false;
    produced_order.insert(produced_order.end(), here.begin(), here.end());
  }

  std::vector<int> final_perm;
  for (QubitId q : qubits) {
    const auto it =
        std::find(produced_order.begin(), produced_order.end(), q);
    final_perm.push_back(static_cast<int>(it - produced_order.begin()));
  }
  return out.permuted(final_perm);
}

}  // namespace qlink::qstate
