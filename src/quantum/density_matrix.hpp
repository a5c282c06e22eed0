#pragma once

#include <span>
#include <vector>

#include "quantum/matrix.hpp"

/// \file density_matrix.hpp
/// n-qubit density matrices with operator application on arbitrary
/// qubit subsets.
///
/// Convention: qubit 0 is the most significant bit of the basis index,
/// i.e. the leftmost tensor factor, so |q0 q1 ... q_{n-1}> maps to the
/// binary number q0 q1 ... q_{n-1}.

namespace qlink::quantum {

class DensityMatrix {
 public:
  /// All-|0...0> state on n qubits.
  explicit DensityMatrix(int num_qubits);

  /// From a pure state vector (dimension must be a power of two).
  static DensityMatrix from_pure(std::span<const Complex> amplitudes);

  /// From a raw (already valid) density matrix.
  static DensityMatrix from_matrix(Matrix m);

  int num_qubits() const noexcept { return num_qubits_; }
  std::size_t dim() const noexcept { return std::size_t{1} << num_qubits_; }
  const Matrix& matrix() const noexcept { return m_; }

  /// rho -> U rho U^dagger, with U acting on the listed target qubits.
  void apply_unitary(const Matrix& u, std::span<const int> targets);

  /// rho -> sum_k K rho K^dagger over the Kraus set, on the targets.
  void apply_kraus(std::span<const Matrix> kraus,
                   std::span<const int> targets);

  /// rho -> K rho K^dagger / p for one Kraus/measurement operator.
  /// Returns the (pre-normalisation) probability p; if p ~ 0 the state is
  /// left untouched and 0 is returned.
  double apply_and_renormalize(const Matrix& op,
                               std::span<const int> targets);

  /// Trace out the listed qubits; remaining qubits keep their relative
  /// order and are renumbered contiguously from 0.
  DensityMatrix partial_trace(std::span<const int> remove) const;

  /// this (x) other.
  DensityMatrix tensor(const DensityMatrix& other) const;

  /// Fidelity <psi| rho |psi> to a pure state on all qubits.
  double fidelity(std::span<const Complex> psi) const;

  double trace_real() const;
  double purity() const;

  /// Reorder qubits: new qubit i is old qubit perm[i].
  DensityMatrix permuted(std::span<const int> perm) const;

  /// Renormalise so the trace is 1 (guards against numeric drift).
  void renormalize();

  bool approx_equal(const DensityMatrix& other, double tol = 1e-9) const {
    return num_qubits_ == other.num_qubits_ && m_.approx_equal(other.m_, tol);
  }

  /// Expand a k-qubit operator to the full n-qubit space acting on
  /// `targets` (exposed for tests and the herald model).
  static Matrix expand_operator(const Matrix& op, std::span<const int> targets,
                                int num_qubits);

 private:
  DensityMatrix(Matrix m, int num_qubits)
      : m_(std::move(m)), num_qubits_(num_qubits) {}

  Matrix m_;
  int num_qubits_ = 0;
};

}  // namespace qlink::quantum
