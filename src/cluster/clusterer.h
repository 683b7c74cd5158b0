// Pluggable clustering back-ends.
//
// Every partitioning algorithm the compressor can use (k-means, the
// spectral variants, hierarchical average-linkage, and any backend an
// application registers at runtime) implements the Clusterer interface
// and is resolved by name through ClustererRegistry. A backend is a
// name plus one call, Cluster, that partitions the vectors at one K;
// there is no fitted state kept between calls. The compression
// pipeline never names a concrete algorithm: it looks the backend up,
// so new methods plug in without touching src/core/.
#ifndef LOGR_CLUSTER_CLUSTERER_H_
#define LOGR_CLUSTER_CLUSTERER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/named_registry.h"
#include "util/thread_pool.h"
#include "workload/feature_vec.h"

namespace logr {

/// Everything a backend needs besides the data itself.
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
  /// == vecs[i]), shared so backends skip re-packing. Without it the
  /// spectral and hierarchical backends pack locally and k-means seeds
  /// from the merge kernel; every distance is bit-identical either way.
  const PackedVecPool* packed = nullptr;
};

/// A clustering algorithm over sparse binary feature vectors.
class Clusterer {
 public:
  virtual ~Clusterer() = default;

  /// Registry name (stable; used in options files and CLIs).
  virtual const char* Name() const = 0;

  /// Partitions `vecs` into `req.k` clusters. `weights` is empty
  /// (uniform) or one non-negative weight per vector. Returns one
  /// cluster id per input index, dense in [0, k).
  virtual std::vector<int> Cluster(const std::vector<FeatureVec>& vecs,
                                   const std::vector<double>& weights,
                                   const ClusterRequest& req) const = 0;
};

/// Process-wide name -> backend table. Thread-safe. The five built-in
/// backends ("KmeansEuclidean", "manhattan", "minkowski", "hamming",
/// "hierarchical") are registered on first access, one name each.
class ClustererRegistry : public NamedRegistry<Clusterer> {
 public:
  static ClustererRegistry& Instance();

 private:
  ClustererRegistry();
};

}  // namespace logr

#endif  // LOGR_CLUSTER_CLUSTERER_H_
