// Dense row-major matrix and vector kernels.
//
// The repository needs only modest linear algebra: spectral clustering
// (symmetric eigenproblems on affinity matrices of up to a few thousand
// distinct queries) and the Appendix-C distribution sampler (equality-
// constrained Euclidean projection; its dense products live with it in
// linalg/solve.h). Everything is implemented here from scratch — no
// external BLAS/LAPACK dependency.
#ifndef LOGR_LINALG_MATRIX_H_
#define LOGR_LINALG_MATRIX_H_

#include <cstddef>
#include <vector>

namespace logr {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row `r`.
  double* Row(std::size_t r) { return data_.data() + r * cols_; }
  const double* Row(std::size_t r) const { return data_.data() + r * cols_; }

  /// Returns the identity matrix of order n.
  static Matrix Identity(std::size_t n);

  /// Frobenius norm of the off-diagonal part (Jacobi convergence test).
  double OffDiagonalNorm() const;

 private:
  std::size_t rows_, cols_;
  std::vector<double> data_;
};

/// Dot product. Sizes must match.
double Dot(const Vector& a, const Vector& b);

/// Euclidean norm.
double Norm2(const Vector& a);

/// a += s * b (sizes must match).
void Axpy(double s, const Vector& b, Vector* a);

/// a *= s.
void Scale(double s, Vector* a);

}  // namespace logr

#endif  // LOGR_LINALG_MATRIX_H_
