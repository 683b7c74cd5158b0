#include "cluster/spectral.h"

#include <algorithm>
#include <cmath>

#include "linalg/symmetric_eigen.h"
#include "util/check.h"

namespace logr {

double MedianNonzeroDistance(const CondensedDistances& dist,
                             ThreadPool* pool) {
  const std::size_t count = dist.size();
  // Row-parallel gather of the nonzero upper-triangle entries: count per
  // row, prefix-sum the offsets, then fill each row's slice. The filled
  // array is identical for any schedule, so nth_element sees the same
  // multiset (and the same memory layout) every time.
  std::vector<std::size_t> row_count(count, 0);
  ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
    const double* row = dist.Row(i);
    std::size_t c = 0;
    for (std::size_t o = 0; o + i + 1 < count; ++o) {
      if (row[o] > 0.0) ++c;
    }
    row_count[i] = c;
  });
  std::vector<std::size_t> offset(count + 1, 0);
  for (std::size_t i = 0; i < count; ++i) {
    offset[i + 1] = offset[i] + row_count[i];
  }
  std::vector<double> nonzero(offset[count]);
  ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
    const double* row = dist.Row(i);
    std::size_t at = offset[i];
    for (std::size_t o = 0; o + i + 1 < count; ++o) {
      if (row[o] > 0.0) nonzero[at++] = row[o];
    }
  });
  if (nonzero.empty()) return 1.0;
  std::nth_element(nonzero.begin(), nonzero.begin() + nonzero.size() / 2,
                   nonzero.end());
  double sigma = nonzero[nonzero.size() / 2];
  return sigma > 0.0 ? sigma : 1.0;
}

Matrix GaussianAffinity(const CondensedDistances& dist, double sigma,
                        Vector* degree, ThreadPool* pool) {
  const std::size_t count = dist.size();
  Matrix w(count, count);
  degree->assign(count, 0.0);
  const double inv = 1.0 / (2.0 * sigma * sigma);
  ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
    double deg = 0.0;
    for (std::size_t j = 0; j < count; ++j) {
      double a = 1.0;
      if (i != j) {
        const double d = dist.at(i, j);
        a = std::exp(-d * d * inv);
      }
      w(i, j) = a;
      deg += a;
    }
    (*degree)[i] = deg;
  });
  return w;
}

ClusteringResult SpectralCluster(const std::vector<FeatureVec>& vecs,
                                 const std::vector<double>& weights,
                                 std::size_t n,
                                 const SpectralOptions& opts) {
  const std::size_t count = vecs.size();
  LOGR_CHECK(count > 0 && opts.k >= 1);
  const std::size_t k = std::min(opts.k, count);
  if (k == 1 || count == 1) {
    ClusteringResult r;
    r.assignment.assign(count, 0);
    r.k = 1;
    return r;
  }

  ThreadPool* pool = opts.pool ? opts.pool : ThreadPool::Shared();

  // Condensed pairwise distances (packed kernel) and median bandwidth. A
  // shared pool skips the re-pack; the distances are identical either way.
  const CondensedDistances dist =
      opts.packed ? CondensedDistanceMatrix(*opts.packed, opts.distance, pool)
                  : CondensedDistanceMatrix(vecs, n, opts.distance, pool);
  double sigma = opts.sigma;
  if (sigma <= 0.0) sigma = MedianNonzeroDistance(dist, pool);

  // Gaussian affinity and degree.
  Vector degree;
  Matrix w = GaussianAffinity(dist, sigma, &degree, pool);
  // Normalized affinity M = D^{-1/2} W D^{-1/2}; its top-k eigenvectors
  // equal the bottom-k of the symmetric normalized Laplacian.
  Vector dinv_sqrt(count);
  for (std::size_t i = 0; i < count; ++i) {
    LOGR_CHECK(degree[i] > 0.0);
    dinv_sqrt[i] = 1.0 / std::sqrt(degree[i]);
  }
  auto matvec = [&](const Vector& x, Vector* y) {
    Vector scaled(count);
    for (std::size_t i = 0; i < count; ++i) scaled[i] = x[i] * dinv_sqrt[i];
    Vector wx = w.MatVec(scaled);
    y->resize(count);
    for (std::size_t i = 0; i < count; ++i) (*y)[i] = wx[i] * dinv_sqrt[i];
  };

  EigenResult eig = LanczosLargest(matvec, count, k, opts.seed);
  const std::size_t found = eig.eigenvectors.size();
  LOGR_CHECK(found >= 1);

  // Row-normalized spectral embedding.
  std::vector<Vector> embedding(count, Vector(found, 0.0));
  for (std::size_t i = 0; i < count; ++i) {
    double norm = 0.0;
    for (std::size_t c = 0; c < found; ++c) {
      double v = eig.eigenvectors[c][i];
      embedding[i][c] = v;
      norm += v * v;
    }
    norm = std::sqrt(norm);
    if (norm > 1e-12) {
      for (double& v : embedding[i]) v /= norm;
    }
  }

  KMeansOptions km;
  km.k = k;
  km.seed = opts.seed;
  km.n_init = opts.n_init;
  km.pool = pool;
  ClusteringResult r = KMeansDense(embedding, weights, km);
  r.k = k;
  return r;
}

}  // namespace logr
