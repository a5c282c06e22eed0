#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

/// \file matrix.hpp
/// Dense complex matrices for the quantum simulator.
///
/// Quantum states in this reproduction never exceed a handful of qubits
/// (the herald model needs 4: two electrons plus two photonic qubits), so
/// a straightforward dense row-major matrix is both simple and fast
/// enough. No external linear-algebra dependency is used.

namespace qlink::quantum {

using Complex = std::complex<double>;

class Matrix {
 public:
  Matrix() = default;

  /// Zero matrix of the given shape.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, Complex{0.0, 0.0}) {
    if (!data_.empty()) ++heap_allocations_;
  }

  /// Build from nested initializer lists: Matrix{{a,b},{c,d}}.
  Matrix(std::initializer_list<std::initializer_list<Complex>> rows);

  /// Copies allocate (and are counted); moves never do. The hot paths
  /// in gates.cpp / channels.cpp and the state backends hand matrices
  /// around by move — heap_allocations() makes silent copies visible
  /// and is asserted on in tests/test_matrix.cpp.
  Matrix(const Matrix& other)
      : rows_(other.rows_), cols_(other.cols_), data_(other.data_) {
    if (!data_.empty()) ++heap_allocations_;
  }
  Matrix(Matrix&& other) noexcept
      : rows_(other.rows_), cols_(other.cols_), data_(std::move(other.data_)) {
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
  }
  Matrix& operator=(const Matrix& other) {
    if (this == &other) return *this;
    if (data_.capacity() < other.data_.size() && !other.data_.empty()) {
      ++heap_allocations_;
    }
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = other.data_;
    return *this;
  }
  Matrix& operator=(Matrix&& other) noexcept {
    if (this == &other) return *this;
    rows_ = other.rows_;
    cols_ = other.cols_;
    data_ = std::move(other.data_);
    other.rows_ = 0;
    other.cols_ = 0;
    other.data_.clear();
    return *this;
  }

  /// Total heap allocations made by Matrix construction/copying so far
  /// (monotone; diff across a region to bound its allocation count).
  static std::uint64_t heap_allocations() noexcept {
    return heap_allocations_;
  }

  static Matrix identity(std::size_t n);
  static Matrix zero(std::size_t rows, std::size_t cols) {
    return Matrix(rows, cols);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  Complex& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  const Complex& operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<const Complex> data() const noexcept { return data_; }

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator*(Complex scalar) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator*=(Complex scalar);

  /// Conjugate transpose.
  Matrix dagger() const;

  /// Kronecker (tensor) product, `this` on the left.
  Matrix kron(const Matrix& other) const;

  Complex trace() const;

  /// Frobenius norm of (this - other); used by tests for approx equality.
  double distance(const Matrix& other) const;

  bool is_square() const noexcept { return rows_ == cols_; }
  bool approx_equal(const Matrix& other, double tol = 1e-9) const;
  bool is_hermitian(double tol = 1e-9) const;

  /// Matrix-vector product.
  std::vector<Complex> apply(std::span<const Complex> v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<Complex> data_;
  inline static std::uint64_t heap_allocations_ = 0;
};

Matrix operator*(Complex scalar, const Matrix& m);

/// Outer product |a><b|.
Matrix outer(std::span<const Complex> a, std::span<const Complex> b);

/// Inner product <a|b>.
Complex inner(std::span<const Complex> a, std::span<const Complex> b);

/// Normalise a state vector in place; throws on the zero vector.
void normalize(std::vector<Complex>& v);

}  // namespace qlink::quantum
