#include "quantum/density_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qlink::quantum {

namespace {

int log2_exact(std::size_t dim) {
  int n = 0;
  std::size_t d = dim;
  while (d > 1) {
    if (d % 2 != 0) throw std::invalid_argument("dimension not a power of 2");
    d /= 2;
    ++n;
  }
  return n;
}

void check_targets(std::span<const int> targets, int num_qubits) {
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] < 0 || targets[i] >= num_qubits) {
      throw std::invalid_argument("target qubit out of range");
    }
    for (std::size_t j = i + 1; j < targets.size(); ++j) {
      if (targets[i] == targets[j]) {
        throw std::invalid_argument("duplicate target qubit");
      }
    }
  }
}

}  // namespace

DensityMatrix::DensityMatrix(int num_qubits)
    : m_(std::size_t{1} << num_qubits, std::size_t{1} << num_qubits),
      num_qubits_(num_qubits) {
  if (num_qubits < 0 || num_qubits > 16) {
    throw std::invalid_argument("DensityMatrix: unsupported qubit count");
  }
  m_(0, 0) = 1.0;
}

DensityMatrix DensityMatrix::from_pure(std::span<const Complex> amplitudes) {
  const int n = log2_exact(amplitudes.size());
  double norm2 = 0.0;
  for (const auto& a : amplitudes) norm2 += std::norm(a);
  if (std::abs(norm2 - 1.0) > 1e-9) {
    throw std::invalid_argument("from_pure: state not normalised");
  }
  return DensityMatrix(outer(amplitudes, amplitudes), n);
}

DensityMatrix DensityMatrix::from_matrix(Matrix m) {
  if (!m.is_square()) throw std::invalid_argument("from_matrix: not square");
  const int n = log2_exact(m.rows());
  return DensityMatrix(std::move(m), n);
}

Matrix DensityMatrix::expand_operator(const Matrix& op,
                                      std::span<const int> targets,
                                      int num_qubits) {
  const int k = static_cast<int>(targets.size());
  if (op.rows() != (std::size_t{1} << k) || !op.is_square()) {
    throw std::invalid_argument("expand_operator: operator/target mismatch");
  }
  check_targets(targets, num_qubits);

  const std::size_t dim = std::size_t{1} << num_qubits;
  const std::size_t sub = std::size_t{1} << k;
  const std::size_t rest = dim >> k;

  // Bit position (from the left / MSB) of qubit q is num_qubits-1-q when
  // counting from bit 0 = LSB.
  std::vector<int> target_bits(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    target_bits[i] = num_qubits - 1 - targets[i];
  }
  std::vector<int> other_bits;
  for (int b = num_qubits - 1; b >= 0; --b) {
    if (std::find(target_bits.begin(), target_bits.end(), b) ==
        target_bits.end()) {
      other_bits.push_back(b);
    }
  }

  auto compose = [&](std::size_t sub_idx, std::size_t rest_idx) {
    std::size_t idx = 0;
    // sub_idx bit i (MSB-first over targets) goes to target_bits[i].
    for (std::size_t i = 0; i < target_bits.size(); ++i) {
      const std::size_t bit = (sub_idx >> (k - 1 - static_cast<int>(i))) & 1u;
      idx |= bit << target_bits[i];
    }
    for (std::size_t i = 0; i < other_bits.size(); ++i) {
      const std::size_t bit =
          (rest_idx >> (other_bits.size() - 1 - i)) & 1u;
      idx |= bit << other_bits[i];
    }
    return idx;
  };

  Matrix full(dim, dim);
  for (std::size_t r = 0; r < rest; ++r) {
    for (std::size_t i = 0; i < sub; ++i) {
      for (std::size_t j = 0; j < sub; ++j) {
        const Complex v = op(i, j);
        if (v == Complex{0.0, 0.0}) continue;
        full(compose(i, r), compose(j, r)) = v;
      }
    }
  }
  return full;
}

void DensityMatrix::apply_unitary(const Matrix& u,
                                  std::span<const int> targets) {
  const Matrix full = expand_operator(u, targets, num_qubits_);
  m_ = full * m_ * full.dagger();
}

void DensityMatrix::apply_kraus(std::span<const Matrix> kraus,
                                std::span<const int> targets) {
  if (kraus.empty()) throw std::invalid_argument("apply_kraus: empty set");
  Matrix acc(m_.rows(), m_.cols());
  for (const Matrix& k : kraus) {
    const Matrix full = expand_operator(k, targets, num_qubits_);
    acc += full * m_ * full.dagger();
  }
  m_ = std::move(acc);
}

double DensityMatrix::apply_and_renormalize(const Matrix& op,
                                            std::span<const int> targets) {
  const Matrix full = expand_operator(op, targets, num_qubits_);
  Matrix post = full * m_ * full.dagger();
  const double p = post.trace().real();
  if (p < 1e-15) return 0.0;
  post *= Complex{1.0 / p, 0.0};
  m_ = std::move(post);
  return p;
}

DensityMatrix DensityMatrix::partial_trace(std::span<const int> remove) const {
  check_targets(remove, num_qubits_);
  if (static_cast<int>(remove.size()) == num_qubits_) {
    throw std::invalid_argument("partial_trace: cannot remove all qubits");
  }
  std::vector<int> keep;
  for (int q = 0; q < num_qubits_; ++q) {
    if (std::find(remove.begin(), remove.end(), q) == remove.end()) {
      keep.push_back(q);
    }
  }
  const int nk = static_cast<int>(keep.size());
  const int nr = num_qubits_ - nk;
  const std::size_t dim_k = std::size_t{1} << nk;
  const std::size_t dim_r = std::size_t{1} << nr;

  auto compose = [&](std::size_t keep_idx, std::size_t rem_idx) {
    std::size_t idx = 0;
    for (int i = 0; i < nk; ++i) {
      const std::size_t bit = (keep_idx >> (nk - 1 - i)) & 1u;
      idx |= bit << (num_qubits_ - 1 - keep[i]);
    }
    for (int i = 0; i < nr; ++i) {
      const std::size_t bit = (rem_idx >> (nr - 1 - i)) & 1u;
      idx |= bit << (num_qubits_ - 1 - remove[i]);
    }
    return idx;
  };

  Matrix out(dim_k, dim_k);
  for (std::size_t i = 0; i < dim_k; ++i) {
    for (std::size_t j = 0; j < dim_k; ++j) {
      Complex sum{0.0, 0.0};
      for (std::size_t r = 0; r < dim_r; ++r) {
        sum += m_(compose(i, r), compose(j, r));
      }
      out(i, j) = sum;
    }
  }
  return DensityMatrix(std::move(out), nk);
}

DensityMatrix DensityMatrix::tensor(const DensityMatrix& other) const {
  return DensityMatrix(m_.kron(other.m_), num_qubits_ + other.num_qubits_);
}

double DensityMatrix::fidelity(std::span<const Complex> psi) const {
  if (psi.size() != dim()) {
    throw std::invalid_argument("fidelity: dimension mismatch");
  }
  // <psi| rho |psi>
  const std::vector<Complex> rho_psi = m_.apply(psi);
  return inner(psi, rho_psi).real();
}

double DensityMatrix::trace_real() const { return m_.trace().real(); }

double DensityMatrix::purity() const { return (m_ * m_).trace().real(); }

DensityMatrix DensityMatrix::permuted(std::span<const int> perm) const {
  if (static_cast<int>(perm.size()) != num_qubits_) {
    throw std::invalid_argument("permuted: wrong permutation size");
  }
  check_targets(perm, num_qubits_);
  const std::size_t d = dim();
  auto map_index = [&](std::size_t idx) {
    std::size_t out = 0;
    for (int i = 0; i < num_qubits_; ++i) {
      const std::size_t bit = (idx >> (num_qubits_ - 1 - perm[i])) & 1u;
      out |= bit << (num_qubits_ - 1 - i);
    }
    return out;
  };
  Matrix out(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    for (std::size_t j = 0; j < d; ++j) {
      out(map_index(i), map_index(j)) = m_(i, j);
    }
  }
  return DensityMatrix(std::move(out), num_qubits_);
}

void DensityMatrix::renormalize() {
  const double t = trace_real();
  if (t < 1e-15) throw std::logic_error("renormalize: zero trace");
  m_ *= Complex{1.0 / t, 0.0};
}

}  // namespace qlink::quantum
