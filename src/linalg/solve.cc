#include "linalg/solve.h"

#include <cmath>

#include "util/check.h"

namespace logr {

Vector MatVec(const Matrix& a, const Vector& x) {
  LOGR_CHECK(x.size() == a.cols());
  Vector y(a.rows(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.Row(r);
    double acc = 0.0;
    for (std::size_t c = 0; c < a.cols(); ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
  return y;
}

Vector TransposeMatVec(const Matrix& a, const Vector& x) {
  LOGR_CHECK(x.size() == a.rows());
  Vector y(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.Row(r);
    double xr = x[r];
    if (xr == 0.0) continue;
    for (std::size_t c = 0; c < a.cols(); ++c) y[c] += row[c] * xr;
  }
  return y;
}

bool LuSolve(Matrix a, Vector b, Vector* x) {
  LOGR_CHECK(a.rows() == a.cols());
  LOGR_CHECK(b.size() == a.rows());
  const std::size_t n = a.rows();
  std::vector<std::size_t> piv(n);
  for (std::size_t i = 0; i < n; ++i) piv[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot.
    std::size_t p = k;
    double best = std::fabs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      double v = std::fabs(a(i, k));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    if (best < 1e-13) return false;
    if (p != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(k, c), a(p, c));
      std::swap(b[k], b[p]);
    }
    double pivot = a(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      double factor = a(i, k) / pivot;
      if (factor == 0.0) continue;
      a(i, k) = 0.0;
      for (std::size_t c = k + 1; c < n; ++c) a(i, c) -= factor * a(k, c);
      b[i] -= factor * b[k];
    }
  }
  // Back substitution.
  x->assign(n, 0.0);
  for (std::size_t ik = n; ik-- > 0;) {
    double acc = b[ik];
    for (std::size_t c = ik + 1; c < n; ++c) acc -= a(ik, c) * (*x)[c];
    (*x)[ik] = acc / a(ik, ik);
  }
  return true;
}

bool ProjectOntoAffine(const Matrix& a, const Vector& b, const Vector& x0,
                       Vector* x) {
  LOGR_CHECK(a.cols() == x0.size());
  LOGR_CHECK(a.rows() == b.size());
  const std::size_t m = a.rows();

  // residual r = A x0 - b
  Vector r = MatVec(a, x0);
  for (std::size_t i = 0; i < m; ++i) r[i] -= b[i];

  // Gram matrix G = A A^T (+ ridge).
  Matrix g(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i; j < m; ++j) {
      double acc = 0.0;
      const double* ri = a.Row(i);
      const double* rj = a.Row(j);
      for (std::size_t c = 0; c < a.cols(); ++c) acc += ri[c] * rj[c];
      g(i, j) = acc;
      g(j, i) = acc;
    }
  }

  Vector lambda;
  bool ok = false;
  double ridge = 0.0;
  for (int attempt = 0; attempt < 4 && !ok; ++attempt) {
    Matrix greg = g;
    if (ridge > 0.0) {
      for (std::size_t i = 0; i < m; ++i) greg(i, i) += ridge;
    }
    ok = LuSolve(greg, r, &lambda);
    ridge = (ridge == 0.0) ? 1e-10 : ridge * 100.0;
  }
  if (!ok) return false;

  *x = x0;
  // x -= A^T lambda
  Vector corr = TransposeMatVec(a, lambda);
  for (std::size_t c = 0; c < x->size(); ++c) (*x)[c] -= corr[c];
  return true;
}

}  // namespace logr
