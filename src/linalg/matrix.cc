#include "linalg/matrix.h"

#include <cmath>

#include "util/check.h"

namespace logr {

Matrix Matrix::Identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

double Matrix::OffDiagonalNorm() const {
  double acc = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      if (r != c) acc += (*this)(r, c) * (*this)(r, c);
    }
  }
  return std::sqrt(acc);
}

double Dot(const Vector& a, const Vector& b) {
  LOGR_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

double Norm2(const Vector& a) { return std::sqrt(Dot(a, a)); }

void Axpy(double s, const Vector& b, Vector* a) {
  LOGR_CHECK(a->size() == b.size());
  for (std::size_t i = 0; i < b.size(); ++i) (*a)[i] += s * b[i];
}

void Scale(double s, Vector* a) {
  for (double& v : *a) v *= s;
}

}  // namespace logr
