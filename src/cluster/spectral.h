// Spectral clustering (Ng-Jordan-Weiss style, paper Sec. 6.1 [31]).
//
// Pipeline: condensed pairwise distances under the chosen metric ->
// Gaussian affinity with a median-distance bandwidth -> symmetric-normalized
// affinity D^{-1/2} W D^{-1/2} -> k leading eigenvectors via Lanczos ->
// row-normalized embedding -> weighted k-means.
#ifndef LOGR_CLUSTER_SPECTRAL_H_
#define LOGR_CLUSTER_SPECTRAL_H_

#include "cluster/distance.h"
#include "cluster/kmeans.h"

namespace logr {

struct SpectralOptions {
  std::size_t k = 1;
  DistanceSpec distance;
  /// Gaussian kernel bandwidth; 0 selects the median pairwise distance.
  double sigma = 0.0;
  std::uint64_t seed = 17;
  /// Restarts for the embedded k-means stage.
  int n_init = 4;
  /// Pool for the distance and k-means stages; nullptr selects
  /// ThreadPool::Shared(). Results never depend on the pool size.
  ThreadPool* pool = nullptr;
  /// Optional shared packed pool over exactly the input vectors; the
  /// distance stage fills its condensed store from it instead of
  /// re-packing. Bit-identical either way.
  const PackedVecPool* packed = nullptr;
};

/// Spectral clustering of sparse binary vectors in an n-feature universe.
ClusteringResult SpectralCluster(const std::vector<FeatureVec>& vecs,
                                 const std::vector<double>& weights,
                                 std::size_t n, const SpectralOptions& opts);

/// Median nonzero off-diagonal distance — the default Gaussian bandwidth.
/// Returns 1.0 when every pairwise distance is zero. The gather runs
/// row-parallel over the upper triangle into precomputed offsets, so the
/// collected multiset (and therefore the median) is identical for any
/// pool size.
double MedianNonzeroDistance(const CondensedDistances& dist, ThreadPool* pool);

/// Gaussian affinity W(i, j) = exp(-d(i,j)^2 / (2 sigma^2)) with unit
/// diagonal, plus the row-sum degree vector. Row-parallel: each row and
/// its degree entry are written by one iteration, accumulated in
/// ascending j order, so results are bit-identical for any pool size.
/// Row i reads its lower half (j < i) down the store's columns.
Matrix GaussianAffinity(const CondensedDistances& dist, double sigma,
                        Vector* degree, ThreadPool* pool);

}  // namespace logr

#endif  // LOGR_CLUSTER_SPECTRAL_H_
