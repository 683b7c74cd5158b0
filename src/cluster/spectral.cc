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
  std::vector<std::size_t> offset(count + 1, 0);
  ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
    const double* row = dist.Row(i);
    std::size_t c = 0;
    for (std::size_t o = 0; o + i + 1 < count; ++o) {
      if (row[o] > 0.0) ++c;
    }
    offset[i + 1] = c;
  });
  for (std::size_t i = 0; i < count; ++i) offset[i + 1] += offset[i];
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
  return nonzero[nonzero.size() / 2];  // > 0, as every gathered entry is
}

void GaussianKernelInPlace(CondensedDistances* dist, double sigma,
                           ThreadPool* pool) {
  const std::size_t count = dist->size();
  const double inv = 1.0 / (2.0 * sigma * sigma);
  ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
    double* row = dist->Row(i);
    for (std::size_t o = 0; o + i + 1 < count; ++o) {
      const double d = row[o];
      row[o] = std::exp(-d * d * inv);
    }
  });
}

void UnitDiagonalMatVec(const CondensedDistances& a, const Vector& x,
                        Vector* y, ThreadPool* pool) {
  const std::size_t count = a.size();
  LOGR_CHECK(x.size() == count);
  y->resize(count);
  const std::size_t tiles = (count + kMatVecTile - 1) / kMatVecTile;
  ParallelFor(pool, 0, tiles, kCoarseGrain, [&](std::size_t tile) {
    const std::size_t lo = tile * kMatVecTile;
    const std::size_t hi = std::min(count, lo + kMatVecTile);
    // j < i: store row j holds (j, i) for all i > j, so an ascending
    // sweep over j adds each tile row's lower half in order.
    double acc[kMatVecTile] = {};
    for (std::size_t j = 0; j + 1 < hi; ++j) {
      const std::size_t first = std::max(lo, j + 1);
      const double* run = a.Row(j) + (first - j - 1);
      for (std::size_t i = first; i < hi; ++i) {
        acc[i - lo] += run[i - first] * x[j];
      }
    }
    // j = i, then j > i along row i itself.
    for (std::size_t i = lo; i < hi; ++i) {
      double sum = acc[i - lo] + 1.0 * x[i];
      const double* row = a.Row(i);
      for (std::size_t j = i + 1; j < count; ++j) {
        sum += row[j - i - 1] * x[j];
      }
      (*y)[i] = sum;
    }
  });
}

ClusteringResult SpectralCluster(CondensedDistances affinity,
                                 const std::vector<double>& weights,
                                 std::size_t k, std::uint64_t seed, int n_init,
                                 ThreadPool* pool) {
  const std::size_t count = affinity.size();
  LOGR_CHECK(count > 0 && k >= 1 && pool != nullptr);
  k = std::min(k, count);

  // The distances, overwritten by their affinities.
  GaussianKernelInPlace(&affinity, MedianNonzeroDistance(affinity, pool),
                        pool);

  // Degree = W * ones, the row sums in ascending j (a * 1.0 == a).
  Vector degree;
  UnitDiagonalMatVec(affinity, Vector(count, 1.0), &degree, pool);
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
    UnitDiagonalMatVec(affinity, scaled, y, pool);
    for (std::size_t i = 0; i < count; ++i) (*y)[i] *= dinv_sqrt[i];
  };

  EigenResult eig = LanczosLargest(matvec, count, k, seed);
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

  return KMeansDense(embedding, weights, k, seed, n_init, pool);
}

}  // namespace logr
