// The clustering methods the compressor can partition a log with.
//
// The paper compares a fixed set of partitioning methods (Sec. 6.1):
// k-means under Euclidean distance, spectral clustering under
// Manhattan, Minkowski (p = 4) and Hamming distance, and hierarchical
// average linkage. ClusteringMethod names each one, and Cluster runs
// it: one call that partitions the vectors at one K, with no fitted
// state kept between calls.
#ifndef LOGR_CLUSTER_CLUSTERER_H_
#define LOGR_CLUSTER_CLUSTERER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_pool.h"
#include "workload/feature_vec.h"

namespace logr {

enum class ClusteringMethod {
  kKMeansEuclidean,      // paper: "KmeansEuclidean"
  kSpectralManhattan,    // paper: "manhattan"
  kSpectralMinkowski,    // paper: "minkowski" (p = 4)
  kSpectralHamming,      // paper: "hamming"
  kHierarchicalAverage,  // paper Sec. 6.1.1 (monotone assignments)
};

/// Stable name of `m` (also the paper's label for the method).
const char* ClusteringMethodName(ClusteringMethod m);

/// Inverse of ClusteringMethodName. Also accepts "kmeans", the CLI
/// spelling of "KmeansEuclidean". Returns false (leaving `*out`
/// untouched) for unknown names.
bool ParseClusteringMethod(const std::string& name, ClusteringMethod* out);

/// Everything a method needs besides the data itself; Cluster hands it
/// unchanged to KMeansSparse and reads it for the store-based fits.
struct ClusterRequest {
  std::size_t k = 1;
  /// Size of the feature universe the sparse vectors index into.
  std::size_t num_features = 0;
  std::uint64_t seed = 17;
  /// Random restarts for k-means style stages.
  int n_init = 4;
  /// Worker pool for data-parallel stages; nullptr selects
  /// ThreadPool::Shared(). Results never depend on the pool size.
  ThreadPool* pool = nullptr;
  /// Optional pre-built packed pool over exactly the same vectors (row i
  /// == vecs[i]), shared so methods skip re-packing. Two readers:
  /// Cluster fills the spectral and hierarchical condensed store from
  /// it (without it, from a local pack), and KMeansSparse's ++ seeding
  /// reads its symmetric differences (without it, the merge kernel's).
  /// Every distance is bit-identical either way.
  const PackedVecPool* packed = nullptr;
};

/// Partitions `vecs` into `req.k` clusters with `method`. `weights` is
/// empty (uniform) or one non-negative weight per vector. Returns one
/// cluster id per input index, dense in [0, k). At min(k, N) = 1 every
/// id is 0 and no method runs.
std::vector<int> Cluster(ClusteringMethod method,
                         const std::vector<FeatureVec>& vecs,
                         const std::vector<double>& weights,
                         const ClusterRequest& req);

}  // namespace logr

#endif  // LOGR_CLUSTER_CLUSTERER_H_
