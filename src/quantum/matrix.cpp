#include "quantum/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace qlink::quantum {

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  if (rows_ * cols_ > 0) ++heap_allocations_;
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::operator+(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::operator+: shape mismatch");
  }
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] + other.data_[i];
  }
  return out;
}

Matrix Matrix::operator-(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::operator-: shape mismatch");
  }
  Matrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = data_[i] - other.data_[i];
  }
  return out;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix::operator*: shape mismatch");
  }
  Matrix out(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const Complex a = (*this)(i, k);
      if (a == Complex{0.0, 0.0}) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        out(i, j) += a * other(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::operator*(Complex scalar) const {
  Matrix out = *this;
  out *= scalar;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(Complex scalar) {
  for (auto& x : data_) x *= scalar;
  return *this;
}

Matrix Matrix::dagger() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out(j, i) = std::conj((*this)(i, j));
    }
  }
  return out;
}

Matrix Matrix::kron(const Matrix& other) const {
  Matrix out(rows_ * other.rows_, cols_ * other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      const Complex a = (*this)(i, j);
      if (a == Complex{0.0, 0.0}) continue;
      for (std::size_t k = 0; k < other.rows_; ++k) {
        for (std::size_t l = 0; l < other.cols_; ++l) {
          out(i * other.rows_ + k, j * other.cols_ + l) = a * other(k, l);
        }
      }
    }
  }
  return out;
}

Complex Matrix::trace() const {
  if (!is_square()) throw std::logic_error("Matrix::trace: not square");
  Complex t{0.0, 0.0};
  for (std::size_t i = 0; i < rows_; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::distance(const Matrix& other) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) {
    throw std::invalid_argument("Matrix::distance: shape mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    sum += std::norm(data_[i] - other.data_[i]);
  }
  return std::sqrt(sum);
}

bool Matrix::approx_equal(const Matrix& other, double tol) const {
  return rows_ == other.rows_ && cols_ == other.cols_ &&
         distance(other) <= tol;
}

bool Matrix::is_hermitian(double tol) const {
  if (!is_square()) return false;
  return distance(dagger()) <= tol;
}

std::vector<Complex> Matrix::apply(std::span<const Complex> v) const {
  if (v.size() != cols_) {
    throw std::invalid_argument("Matrix::apply: size mismatch");
  }
  std::vector<Complex> out(rows_, Complex{0.0, 0.0});
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) {
      out[i] += (*this)(i, j) * v[j];
    }
  }
  return out;
}

Matrix operator*(Complex scalar, const Matrix& m) { return m * scalar; }

Matrix outer(std::span<const Complex> a, std::span<const Complex> b) {
  Matrix out(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out(i, j) = a[i] * std::conj(b[j]);
    }
  }
  return out;
}

Complex inner(std::span<const Complex> a, std::span<const Complex> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("inner: size mismatch");
  }
  Complex s{0.0, 0.0};
  for (std::size_t i = 0; i < a.size(); ++i) s += std::conj(a[i]) * b[i];
  return s;
}

void normalize(std::vector<Complex>& v) {
  double n2 = 0.0;
  for (const auto& x : v) n2 += std::norm(x);
  if (n2 <= 0.0) throw std::invalid_argument("normalize: zero vector");
  const double inv = 1.0 / std::sqrt(n2);
  for (auto& x : v) x *= inv;
}

}  // namespace qlink::quantum
