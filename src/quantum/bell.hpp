#pragma once

#include <array>
#include <vector>

#include "quantum/density_matrix.hpp"
#include "quantum/gates.hpp"
#include "quantum/matrix.hpp"

/// \file bell.hpp
/// Bell-state algebra: the four Bell states, fidelity to them, and the
/// QBER <-> fidelity relations of Appendix A.3.

namespace qlink::quantum::bell {

enum class BellState { kPhiPlus, kPhiMinus, kPsiPlus, kPsiMinus };

/// State vector of the requested Bell state (two qubits).
const std::vector<Complex>& state_vector(BellState s);

/// Fidelity of a two-qubit density matrix to a Bell state.
double fidelity(const DensityMatrix& rho, BellState s);

/// Whether outcomes of measuring both qubits of the *ideal* Bell state
/// in the given basis are correlated (true) or anti-correlated (false).
/// E.g. |Psi+>: anti-correlated in Z, correlated in X, anti in Y... the
/// exact table is derived from the stabiliser signs and unit-tested.
bool ideal_outcomes_equal(BellState s, gates::Basis b);

/// QBER of rho in a basis relative to the ideal correlations of the
/// target Bell state: probability that the joint measurement deviates
/// from the ideal (anti-)correlation (footnote 3 of the paper).
double qber(const DensityMatrix& rho, BellState target, gates::Basis b);

/// Fidelity reconstructed from the three QBERs (generalisation of
/// Eq. 16): F = 1 - (QBER_X + QBER_Y + QBER_Z) / 2.
double fidelity_from_qbers(double qber_x, double qber_y, double qber_z);

/// Bell-basis diagonal of a two-qubit state: {<Phi+|rho|Phi+>,
/// <Phi-|rho|Phi->, <Psi+|rho|Psi+>, <Psi-|rho|Psi->}. These sum to 1
/// for any valid state; the state is Bell-diagonal iff rho equals the
/// mixture of Bell projectors with these weights.
std::array<double, 4> diagonal_coefficients(const DensityMatrix& rho);

/// Frobenius distance of rho to the Bell-diagonal state with the same
/// diagonal coefficients (0 iff rho is Bell-diagonal).
double off_diagonal_residual(const DensityMatrix& rho);

/// The Bell-diagonal two-qubit state with the given coefficients
/// (renormalised; the coefficients must be non-negative, not all zero).
DensityMatrix from_coefficients(const std::array<double, 4>& p);

/// Bell twirl: project rho onto the Bell-diagonal manifold, i.e. keep
/// only the Bell-basis diagonal. This is the average over correlated
/// two-sided Paulis (sigma x sigma), so it exactly preserves fidelity
/// to every Bell state and the QBER in every basis — the "Pauli frame"
/// the Bell-diagonal state store simulates in.
DensityMatrix twirl(const DensityMatrix& rho);

/// Name for reports, e.g. "Psi+".
const char* name(BellState s);

}  // namespace qlink::quantum::bell
