#include "quantum/gates.hpp"

#include <cmath>
#include <stdexcept>

namespace qlink::quantum::gates {

namespace {
const Complex kI{0.0, 1.0};
const double kInvSqrt2 = 1.0 / std::sqrt(2.0);
}  // namespace

const Matrix& x() {
  static const Matrix m{{0, 1}, {1, 0}};
  return m;
}

const Matrix& y() {
  static const Matrix m{{0, -kI}, {kI, 0}};
  return m;
}

const Matrix& z() {
  static const Matrix m{{1, 0}, {0, -1}};
  return m;
}

const Matrix& h() {
  static const Matrix m{{kInvSqrt2, kInvSqrt2}, {kInvSqrt2, -kInvSqrt2}};
  return m;
}

const Matrix& s() {
  static const Matrix m{{1, 0}, {0, kI}};
  return m;
}

const Matrix& i2() {
  static const Matrix m = Matrix::identity(2);
  return m;
}

Matrix rx(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s_ = std::sin(theta / 2.0);
  return Matrix{{c, -kI * s_}, {-kI * s_, c}};
}

Matrix ry(double theta) {
  const double c = std::cos(theta / 2.0);
  const double s_ = std::sin(theta / 2.0);
  return Matrix{{c, -s_}, {s_, c}};
}

Matrix rz(double theta) {
  const Complex em = std::exp(-kI * (theta / 2.0));
  const Complex ep = std::exp(kI * (theta / 2.0));
  return Matrix{{em, 0}, {0, ep}};
}

const Matrix& cnot() {
  static const Matrix m{
      {1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
  return m;
}

const Matrix& swap() {
  static const Matrix m{
      {1, 0, 0, 0}, {0, 0, 1, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}};
  return m;
}

Matrix ec_controlled_rx(double theta) {
  Matrix out(4, 4);
  const Matrix plus = rx(theta);
  const Matrix minus = rx(-theta);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      out(i, j) = plus(i, j);
      out(2 + i, 2 + j) = minus(i, j);
    }
  }
  return out;
}

const Matrix& basis_change(Basis b) {
  switch (b) {
    case Basis::kX:
      return h();
    case Basis::kY: {
      // Maps |Y,0> -> |0> and |Y,1> -> |1>: rows are <Y,k|.
      static const Matrix m{{kInvSqrt2, -kI * kInvSqrt2},
                            {kInvSqrt2, kI * kInvSqrt2}};
      return m;
    }
    case Basis::kZ:
      return i2();
  }
  throw std::logic_error("basis_change: invalid basis");
}

const char* basis_name(Basis b) {
  switch (b) {
    case Basis::kX:
      return "X";
    case Basis::kY:
      return "Y";
    case Basis::kZ:
      return "Z";
  }
  return "?";
}

}  // namespace qlink::quantum::gates
