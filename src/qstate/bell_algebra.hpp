#pragma once

#include <array>
#include <cstdlib>
#include <optional>
#include <span>

#include "quantum/matrix.hpp"

/// \file bell_algebra.hpp
/// Closed-form algebra on Bell-diagonal two-qubit states.
///
/// A Bell-diagonal state is a mixture of the four Bell projectors; its
/// 4-vector of coefficients is ordered like quantum::bell::BellState:
/// {Phi+, Phi-, Psi+, Psi-}. Indexing the Bell states by the pair
/// (phase bit f, parity bit g) packed as f + 2g, single-sided Paulis,
/// channel application and entanglement swapping all become XOR
/// arithmetic on indices — the group structure behind the
/// Bell-diagonal state store's fast paths.
///
/// Bell index <-> Pauli type: Phi+ = I, Psi+ = X, Psi- = Y, Phi- = Z
/// (B_sigma = (sigma x I)|Phi+> up to phase). `bell_code_of_pauli`
/// returns that Bell index for a Pauli code.

namespace qlink::qstate::bell_algebra {

using BellCoeffs = std::array<double, 4>;

/// Pauli codes: 0 = I, 1 = X, 2 = Y, 3 = Z.
constexpr int kNumPaulis = 4;

/// Bell index of the Bell state generated by a one-sided Pauli:
/// I -> Phi+(0), X -> Psi+(2), Y -> Psi-(3), Z -> Phi-(1).
constexpr std::array<int, 4> kBellCodeOfPauli{0, 2, 3, 1};

/// Apply a single-sided Pauli (either qubit — Bell-diagonal states are
/// exchange symmetric) to the coefficients: a pure permutation.
inline BellCoeffs apply_pauli(const BellCoeffs& p, int pauli) {
  const int shift = kBellCodeOfPauli[pauli];
  BellCoeffs out;
  for (int k = 0; k < 4; ++k) out[k] = p[k ^ shift];
  return out;
}

/// Apply a single-qubit Pauli channel with weights w over {I, X, Y, Z}
/// to one half of the pair.
inline BellCoeffs apply_pauli_channel(const BellCoeffs& p,
                                      const std::array<double, 4>& w) {
  BellCoeffs out{0.0, 0.0, 0.0, 0.0};
  for (int s = 0; s < 4; ++s) {
    if (w[s] == 0.0) continue;
    const int shift = kBellCodeOfPauli[s];
    for (int k = 0; k < 4; ++k) out[k] += w[s] * p[k ^ shift];
  }
  return out;
}

/// Entanglement swap: pairs (u,c) with coefficients p and (t,v) with
/// coefficients q; a Bell measurement on (c,t) — CNOT(c->t), H(c),
/// Z-measurements m1 (c) and m2 (t) — leaves (u,v) Bell-diagonal with
/// the XOR-convolution of p and q shifted by the measured Bell index
/// mu = m1 + 2*m2. The outcome distribution is exactly uniform over
/// the four (m1, m2) for any Bell-diagonal inputs. No correction
/// Paulis are applied here (callers apply their own frame fixes, as
/// the dense path does).
inline BellCoeffs swap_coefficients(const BellCoeffs& p, const BellCoeffs& q,
                                    int m1, int m2) {
  const int mu = (m1 & 1) + 2 * (m2 & 1);
  BellCoeffs out{0.0, 0.0, 0.0, 0.0};
  for (int k = 0; k < 4; ++k) {
    for (int i = 0; i < 4; ++i) out[k] += p[i] * q[k ^ i ^ mu];
  }
  return out;
}

/// Pauli decomposition of a 2x2 operator: K = sum_s c_s sigma_s / ...
/// Returns the coefficient of each Pauli (tr(sigma_s K) / 2).
std::array<quantum::Complex, 4> pauli_coefficients(const quantum::Matrix& k);

/// If u is a phase times a single Pauli (|c| = 1 within tol), return
/// its Pauli code.
std::optional<int> match_pauli_unitary(const quantum::Matrix& u,
                                       double tol = 1e-12);

struct PauliChannelWeights {
  std::array<double, 4> w{0.0, 0.0, 0.0, 0.0};
  /// Every Kraus operator is individually a Pauli multiple: the
  /// weights describe the channel exactly.
  bool exact = false;
};

/// Pauli-twirl weights of a single-qubit channel given by Kraus
/// operators: w_s = sum_k |tr(sigma_s K_k)/2|^2. For a trace-preserving
/// channel these always sum to 1 (the chi-matrix diagonal); they
/// describe the channel exactly iff it is a Pauli channel.
PauliChannelWeights pauli_channel_weights(
    std::span<const quantum::Matrix> kraus, double tol = 1e-12);

/// Pauli-twirl weights of amplitude damping (gamma) composed with
/// dephasing (p): the closed form used by StateStore::decay.
/// Exact when gamma == 0.
std::array<double, 4> t1t2_twirl_weights(double gamma, double dephase_p);

}  // namespace qlink::qstate::bell_algebra
