// Weighted k-means with k-means++ initialization (paper Sec. 6.1 uses
// sklearn KMeans with Euclidean distance; we cluster the distinct query
// vectors weighted by multiplicity, which is equivalent to clustering the
// raw log).
//
// One Lloyd loop runs on two point types, each supplying only its
// geometry: sparse binary vectors (query logs), which take Cluster's
// ClusterRequest, and dense points (spectral embeddings), which take
// plain arguments.
#ifndef LOGR_CLUSTER_KMEANS_H_
#define LOGR_CLUSTER_KMEANS_H_

#include <cstdint>
#include <vector>

#include "cluster/clusterer.h"
#include "linalg/matrix.h"
#include "util/thread_pool.h"
#include "workload/feature_vec.h"

namespace logr {

struct ClusteringResult {
  std::vector<int> assignment;  // cluster id per input index
  double inertia = 0.0;         // weighted sum of squared distances
};

/// K-means on sparse binary vectors; of `req.n_init` restarts the one
/// with the lowest inertia wins (sklearn's n_init). `weights` may be
/// empty (all ones) or give one non-negative weight per vector. With
/// `req.packed`, ++-seeding reads its symmetric differences: the same
/// integers as the sparse merge. The assignment scan is parallel and the
/// inertia sum serial, so results are bit-identical for every pool.
ClusteringResult KMeansSparse(const std::vector<FeatureVec>& vecs,
                              const std::vector<double>& weights,
                              const ClusterRequest& req);

/// K-means on dense points (rows of equal length); nullptr `pool`
/// selects ThreadPool::Shared().
ClusteringResult KMeansDense(const std::vector<Vector>& points,
                             const std::vector<double>& weights, std::size_t k,
                             std::uint64_t seed, int n_init, ThreadPool* pool);

}  // namespace logr

#endif  // LOGR_CLUSTER_KMEANS_H_
