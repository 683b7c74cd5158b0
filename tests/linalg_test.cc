#include <cmath>

#include "gtest/gtest.h"
#include "linalg/matrix.h"
#include "linalg/solve.h"
#include "linalg/symmetric_eigen.h"
#include "util/prng.h"

namespace logr {
namespace {

TEST(MatrixTest, IdentityMatVec) {
  Matrix i = Matrix::Identity(3);
  Vector x = {1.0, 2.0, 3.0};
  EXPECT_EQ(MatVec(i, x), x);
}

TEST(MatrixTest, TransposeMatVecMatchesElementSums) {
  Pcg32 rng(3);
  Matrix a(4, 6);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) a(r, c) = rng.NextGaussian();
  }
  Vector x(4);
  for (double& v : x) v = rng.NextGaussian();
  Vector y1 = TransposeMatVec(a, x);
  Vector y2(6, 0.0);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) y2[c] += a(r, c) * x[r];
  }
  for (std::size_t i = 0; i < 6; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(SolveTest, LuSolvesRandomSystems) {
  Pcg32 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + trial % 8;
    Matrix a(n, n);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.NextGaussian();
      a(r, r) += 4.0;  // diagonally dominant => well conditioned
    }
    Vector x_true(n);
    for (double& v : x_true) v = rng.NextGaussian();
    Vector b = MatVec(a, x_true);
    Vector x;
    ASSERT_TRUE(LuSolve(a, b, &x));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
  }
}

TEST(SolveTest, LuRejectsSingular) {
  Matrix a(2, 2);
  a(0, 0) = 1; a(0, 1) = 2; a(1, 0) = 2; a(1, 1) = 4;
  Vector x;
  EXPECT_FALSE(LuSolve(a, {1.0, 2.0}, &x));
}

TEST(SolveTest, ProjectionSatisfiesConstraints) {
  // Project a random point onto {x : sum x = 1, x0 + x2 = 0.6}.
  Matrix a(2, 4);
  for (std::size_t c = 0; c < 4; ++c) a(0, c) = 1.0;
  a(1, 0) = 1.0;
  a(1, 2) = 1.0;
  Vector b = {1.0, 0.6};
  Vector x0 = {0.4, 0.1, 0.3, 0.9};
  Vector x;
  ASSERT_TRUE(ProjectOntoAffine(a, b, x0, &x));
  Vector res = MatVec(a, x);
  EXPECT_NEAR(res[0], 1.0, 1e-9);
  EXPECT_NEAR(res[1], 0.6, 1e-9);
}

TEST(SolveTest, ProjectionIsIdempotent) {
  Matrix a(1, 3);
  a(0, 0) = 1.0; a(0, 1) = 1.0; a(0, 2) = 1.0;
  Vector b = {1.0};
  Vector x0 = {0.7, 0.2, 0.4};
  Vector x1, x2;
  ASSERT_TRUE(ProjectOntoAffine(a, b, x0, &x1));
  ASSERT_TRUE(ProjectOntoAffine(a, b, x1, &x2));
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x1[i], x2[i], 1e-10);
}

TEST(SolveTest, ProjectionMinimizesDistance) {
  // The projection must be closer to x0 than any other feasible point.
  Matrix a(1, 2);
  a(0, 0) = 1.0; a(0, 1) = 1.0;
  Vector b = {1.0};
  Vector x0 = {0.9, 0.8};
  Vector x;
  ASSERT_TRUE(ProjectOntoAffine(a, b, x0, &x));
  Vector other = {0.3, 0.7};  // also feasible
  auto dist = [&](const Vector& p) {
    double d0 = p[0] - x0[0], d1 = p[1] - x0[1];
    return d0 * d0 + d1 * d1;
  };
  EXPECT_LE(dist(x), dist(other) + 1e-12);
}

Matrix RandomSymmetric(std::size_t n, Pcg32* rng) {
  Matrix a(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r; c < n; ++c) {
      double v = rng->NextGaussian();
      a(r, c) = v;
      a(c, r) = v;
    }
  }
  return a;
}

TEST(JacobiEigenTest, DiagonalMatrix) {
  Matrix a(3, 3);
  a(0, 0) = 3.0; a(1, 1) = 1.0; a(2, 2) = 2.0;
  EigenResult r = JacobiEigen(a);
  ASSERT_EQ(r.eigenvalues.size(), 3u);
  EXPECT_NEAR(r.eigenvalues[0], 3.0, 1e-10);
  EXPECT_NEAR(r.eigenvalues[1], 2.0, 1e-10);
  EXPECT_NEAR(r.eigenvalues[2], 1.0, 1e-10);
}

TEST(JacobiEigenTest, ReconstructsMatrix) {
  Pcg32 rng(31);
  Matrix a = RandomSymmetric(6, &rng);
  EigenResult r = JacobiEigen(a);
  // A = sum_i lambda_i v_i v_i^T
  Matrix recon(6, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t p = 0; p < 6; ++p) {
      for (std::size_t q = 0; q < 6; ++q) {
        recon(p, q) +=
            r.eigenvalues[i] * r.eigenvectors[i][p] * r.eigenvectors[i][q];
      }
    }
  }
  for (std::size_t p = 0; p < 6; ++p) {
    for (std::size_t q = 0; q < 6; ++q) {
      EXPECT_NEAR(recon(p, q), a(p, q), 1e-8);
    }
  }
}

TEST(JacobiEigenTest, EigenvectorsOrthonormal) {
  Pcg32 rng(37);
  Matrix a = RandomSymmetric(5, &rng);
  EigenResult r = JacobiEigen(a);
  for (std::size_t i = 0; i < 5; ++i) {
    for (std::size_t j = 0; j < 5; ++j) {
      double d = Dot(r.eigenvectors[i], r.eigenvectors[j]);
      EXPECT_NEAR(d, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(LanczosTest, MatchesJacobiOnLargestEigenpairs) {
  Pcg32 rng(41);
  const std::size_t n = 30;
  Matrix a = RandomSymmetric(n, &rng);
  // Make it positive definite-ish to separate the spectrum.
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 10.0;
  EigenResult exact = JacobiEigen(a);
  auto matvec = [&](const Vector& x, Vector* y) { *y = MatVec(a, x); };
  EigenResult approx = LanczosLargest(matvec, n, 4, /*seed=*/3, n);
  ASSERT_GE(approx.eigenvalues.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(approx.eigenvalues[i], exact.eigenvalues[i], 1e-6);
    // Eigenvector matches up to sign.
    double d = std::fabs(Dot(approx.eigenvectors[i], exact.eigenvectors[i]));
    EXPECT_NEAR(d, 1.0, 1e-5);
  }
}

TEST(LanczosTest, ResidualSmall) {
  Pcg32 rng(43);
  const std::size_t n = 50;
  Matrix a = RandomSymmetric(n, &rng);
  auto matvec = [&](const Vector& x, Vector* y) { *y = MatVec(a, x); };
  EigenResult r = LanczosLargest(matvec, n, 3, 5, n);
  for (std::size_t i = 0; i < r.eigenvalues.size(); ++i) {
    Vector av = MatVec(a, r.eigenvectors[i]);
    Axpy(-r.eigenvalues[i], r.eigenvectors[i], &av);
    EXPECT_LT(Norm2(av), 1e-5);
  }
}

}  // namespace
}  // namespace logr
