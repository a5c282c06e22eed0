#pragma once

#include "quantum/matrix.hpp"

/// \file gates.hpp
/// Standard single- and two-qubit gate matrices, plus the NV-specific
/// electron-controlled carbon rotation of Appendix D.2.2 (Eq. 22).

namespace qlink::quantum::gates {

/// Pauli X (bit flip).
const Matrix& x();
/// Pauli Y.
const Matrix& y();
/// Pauli Z (phase flip).
const Matrix& z();
/// Hadamard.
const Matrix& h();
/// Phase gate S = diag(1, i).
const Matrix& s();
/// 2x2 identity.
const Matrix& i2();

/// Rotation about the X axis: exp(-i theta X / 2).
Matrix rx(double theta);
/// Rotation about the Y axis: exp(-i theta Y / 2).
Matrix ry(double theta);
/// Rotation about the Z axis: exp(-i theta Z / 2).
Matrix rz(double theta);

/// CNOT with qubit 0 (the left tensor factor) as control.
const Matrix& cnot();
/// SWAP.
const Matrix& swap();

/// The NV electron(control)-carbon(target) gate of Eq. 22:
/// diag(RX(theta), RX(-theta)). theta = pi/2 gives the
/// "E-C controlled-sqrt(X)" of Table 6.
Matrix ec_controlled_rx(double theta);

/// Basis-change unitary U such that measuring in basis B equals applying
/// U then measuring in Z. X -> H, Y -> (S H)^dagger adjoint convention,
/// Z -> identity.
enum class Basis { kX, kY, kZ };
const Matrix& basis_change(Basis b);

/// Human-readable basis name ("X", "Y", "Z").
const char* basis_name(Basis b);

}  // namespace qlink::quantum::gates
