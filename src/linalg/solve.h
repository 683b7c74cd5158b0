// Linear solvers: LU with partial pivoting and equality-constrained
// Euclidean projection (the workhorse of the Appendix-C sampler), and
// the dense matrix-vector products the projection runs on.
#ifndef LOGR_LINALG_SOLVE_H_
#define LOGR_LINALG_SOLVE_H_

#include "linalg/matrix.h"

namespace logr {

/// Matrix-vector product A x. Row r sums A(r, c) * x[c] in ascending c
/// from 0.0.
Vector MatVec(const Matrix& a, const Vector& x);

/// Transposed matrix-vector product A^T x.
Vector TransposeMatVec(const Matrix& a, const Vector& x);

/// Solves A x = b by LU decomposition with partial pivoting.
///
/// Returns false when A is (numerically) singular; `x` is then unspecified.
bool LuSolve(Matrix a, Vector b, Vector* x);

/// Projects `x0` onto the affine subspace { x : A x = b } in Euclidean
/// norm:  x = x0 - A^T (A A^T)^{-1} (A x0 - b).
///
/// Used to repair uniformly sampled class-probability vectors so they obey
/// the marginal constraints of a pattern encoding (paper Appendix C.2).
/// Rank-deficient constraint systems are handled by ridge-regularizing
/// A A^T with a tiny diagonal. Returns false if the normal equations are
/// too ill-conditioned even after regularization.
bool ProjectOntoAffine(const Matrix& a, const Vector& b, const Vector& x0,
                       Vector* x);

}  // namespace logr

#endif  // LOGR_LINALG_SOLVE_H_
