#include "cluster/clusterer.h"

#include <algorithm>
#include <utility>

#include "cluster/distance.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "util/check.h"

namespace logr {

const char* ClusteringMethodName(ClusteringMethod m) {
  switch (m) {
    case ClusteringMethod::kKMeansEuclidean: return "KmeansEuclidean";
    case ClusteringMethod::kSpectralManhattan: return "manhattan";
    case ClusteringMethod::kSpectralMinkowski: return "minkowski";
    case ClusteringMethod::kSpectralHamming: return "hamming";
    case ClusteringMethod::kHierarchicalAverage: return "hierarchical";
  }
  return "?";
}

bool ParseClusteringMethod(const std::string& name, ClusteringMethod* out) {
  LOGR_CHECK(out != nullptr);
  if (name == "KmeansEuclidean" || name == "kmeans") {
    *out = ClusteringMethod::kKMeansEuclidean;
  } else if (name == "manhattan") {
    *out = ClusteringMethod::kSpectralManhattan;
  } else if (name == "minkowski") {
    *out = ClusteringMethod::kSpectralMinkowski;
  } else if (name == "hamming") {
    *out = ClusteringMethod::kSpectralHamming;
  } else if (name == "hierarchical") {
    *out = ClusteringMethod::kHierarchicalAverage;
  } else {
    return false;
  }
  return true;
}

std::vector<int> Cluster(ClusteringMethod method,
                         const std::vector<FeatureVec>& vecs,
                         const std::vector<double>& weights,
                         const ClusterRequest& req) {
  LOGR_CHECK(req.k >= 1);
  // One cluster needs no fit: every method would put each vector in 0.
  if (std::min(req.k, vecs.size()) <= 1) {
    return std::vector<int>(vecs.size(), 0);
  }
  DistanceSpec spec;
  switch (method) {
    case ClusteringMethod::kKMeansEuclidean:
      return KMeansSparse(vecs, weights, req).assignment;
    case ClusteringMethod::kSpectralManhattan:
      spec.metric = Metric::kManhattan;
      break;
    case ClusteringMethod::kSpectralMinkowski:
      spec.metric = Metric::kMinkowski;
      spec.p = 4.0;
      break;
    case ClusteringMethod::kSpectralHamming:
    case ClusteringMethod::kHierarchicalAverage:
      spec.metric = Metric::kHamming;
      break;
  }
  // The one condensed store of every store-based fit. Honor the
  // ClusterRequest contract: nullptr means the shared pool, not the
  // serial path (which nullptr selects in the distance fill).
  ThreadPool* pool = req.pool ? req.pool : ThreadPool::Shared();
  CondensedDistances d =
      req.packed
          ? CondensedDistanceMatrix(*req.packed, spec, pool)
          : CondensedDistanceMatrix(vecs, req.num_features, spec, pool);
  if (method == ClusteringMethod::kHierarchicalAverage) {
    return AgglomerativeAverageLinkage(std::move(d), weights, pool)
        .CutToK(req.k);
  }
  return SpectralCluster(std::move(d), weights, req.k, req.seed, req.n_init,
                         pool)
      .assignment;
}

}  // namespace logr
