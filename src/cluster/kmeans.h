// Weighted k-means with k-means++ initialization (paper Sec. 6.1 uses
// sklearn KMeans with Euclidean distance; we cluster the distinct query
// vectors weighted by multiplicity, which is equivalent to clustering the
// raw log).
//
// Two input forms are supported: sparse binary vectors (query logs) and
// dense points (spectral embeddings).
#ifndef LOGR_CLUSTER_KMEANS_H_
#define LOGR_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "linalg/matrix.h"
#include "util/thread_pool.h"
#include "workload/feature_vec.h"

namespace logr {

struct KMeansOptions {
  std::size_t k = 1;
  int max_iterations = 100;
  /// Number of random restarts; the run with lowest inertia wins
  /// (sklearn's n_init).
  int n_init = 4;
  std::uint64_t seed = 17;
  /// Pool for the assignment step; nullptr selects ThreadPool::Shared().
  /// Results are bit-identical for every pool size (the per-point scan is
  /// parallel, the inertia reduction is serial and in index order).
  ThreadPool* pool = nullptr;
  /// Optional shared packed pool over exactly the input vectors (row i
  /// == vecs[i]); ++-seeding reads its symmetric differences instead of
  /// walking the sparse id lists. Distances are the same exact integers
  /// either way.
  const PackedVecPool* packed = nullptr;
};

struct ClusteringResult {
  std::vector<int> assignment;  // cluster id per input index
  std::size_t k = 0;            // number of clusters requested
  double inertia = 0.0;         // weighted sum of squared distances
  int iterations = 0;           // Lloyd iterations of the winning run
};

/// K-means on sparse binary vectors in an `n`-feature universe. `weights`
/// may be empty (all ones) or give one non-negative weight per vector.
ClusteringResult KMeansSparse(const std::vector<FeatureVec>& vecs,
                              const std::vector<double>& weights,
                              std::size_t n, const KMeansOptions& opts);

/// K-means on dense points (rows of equal length).
ClusteringResult KMeansDense(const std::vector<Vector>& points,
                             const std::vector<double>& weights,
                             const KMeansOptions& opts);

}  // namespace logr

#endif  // LOGR_CLUSTER_KMEANS_H_
