// Symmetric eigensolvers.
//
// Spectral clustering needs the k extremal eigenvectors of the
// normalized affinity matrix, which it never forms: it multiplies by the
// condensed affinity store in place (cluster/spectral.h). Two solvers:
//   * Lanczos with full reorthogonalization — k extremal eigenpairs of a
//     large symmetric operator given as a matvec callback; spectral
//     clustering runs it on up to a few thousand distinct queries;
//   * Jacobi rotation — exact full decomposition, O(n^3) per sweep. It
//     runs only inside Lanczos, on the small tridiagonal matrix of the
//     Krylov basis, and as the tests' oracle for Lanczos.
#ifndef LOGR_LINALG_SYMMETRIC_EIGEN_H_
#define LOGR_LINALG_SYMMETRIC_EIGEN_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "linalg/matrix.h"

namespace logr {

/// Result of an eigendecomposition: eigenvalues_[i] pairs with column i of
/// eigenvectors_ (each eigenvector is returned as a row for cache locality).
struct EigenResult {
  Vector eigenvalues;
  std::vector<Vector> eigenvectors;  // eigenvectors[i] has unit 2-norm
};

/// Full eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.
/// Eigenpairs are sorted by descending eigenvalue.
EigenResult JacobiEigen(Matrix a, int max_sweeps = 64, double tol = 1e-12);

/// Computes the `k` algebraically largest eigenpairs of a symmetric linear
/// operator given by `matvec` (y = A x) of dimension `n`, using Lanczos
/// iteration with full reorthogonalization. `seed` controls the start
/// vector. Eigenpairs are sorted by descending eigenvalue.
EigenResult LanczosLargest(
    const std::function<void(const Vector&, Vector*)>& matvec, std::size_t n,
    std::size_t k, std::uint64_t seed = 7, std::size_t max_iter = 0,
    double tol = 1e-9);

}  // namespace logr

#endif  // LOGR_LINALG_SYMMETRIC_EIGEN_H_
