#include "cluster/clusterer.h"

#include <memory>
#include <utility>

#include "cluster/distance.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"

namespace logr {

namespace {

class KMeansClusterer : public Clusterer {
 public:
  const char* Name() const override { return "KmeansEuclidean"; }

  std::vector<int> Cluster(const std::vector<FeatureVec>& vecs,
                           const std::vector<double>& weights,
                           const ClusterRequest& req) const override {
    KMeansOptions km;
    km.k = req.k;
    km.seed = req.seed;
    km.n_init = req.n_init;
    km.pool = req.pool;
    km.packed = req.packed;
    return KMeansSparse(vecs, weights, req.num_features, km).assignment;
  }
};

class SpectralClusterer : public Clusterer {
 public:
  SpectralClusterer(const char* name, DistanceSpec spec)
      : name_(name), spec_(spec) {}

  const char* Name() const override { return name_; }

  std::vector<int> Cluster(const std::vector<FeatureVec>& vecs,
                           const std::vector<double>& weights,
                           const ClusterRequest& req) const override {
    SpectralOptions so;
    so.k = req.k;
    so.seed = req.seed;
    so.n_init = req.n_init;
    so.distance = spec_;
    so.pool = req.pool;
    so.packed = req.packed;
    return SpectralCluster(vecs, weights, req.num_features, so).assignment;
  }

 private:
  const char* name_;
  DistanceSpec spec_;
};

class HierarchicalClusterer : public Clusterer {
 public:
  const char* Name() const override { return "hierarchical"; }

  std::vector<int> Cluster(const std::vector<FeatureVec>& vecs,
                           const std::vector<double>& weights,
                           const ClusterRequest& req) const override {
    DistanceSpec spec;
    spec.metric = Metric::kHamming;
    // Honor the ClusterRequest contract: nullptr means the shared pool,
    // not the serial path (which nullptr selects in the distance fill).
    ThreadPool* pool = req.pool ? req.pool : ThreadPool::Shared();
    CondensedDistances d =
        req.packed
            ? CondensedDistanceMatrix(*req.packed, spec, pool)
            : CondensedDistanceMatrix(vecs, req.num_features, spec, pool);
    return AgglomerativeAverageLinkage(std::move(d), weights, pool)
        .CutToK(req.k);
  }
};

}  // namespace

ClustererRegistry::ClustererRegistry() {
  auto add = [this](const std::shared_ptr<Clusterer>& c) {
    Register(c->Name(), c);
  };
  add(std::make_shared<KMeansClusterer>());
  DistanceSpec manhattan;
  manhattan.metric = Metric::kManhattan;
  add(std::make_shared<SpectralClusterer>("manhattan", manhattan));
  DistanceSpec minkowski;
  minkowski.metric = Metric::kMinkowski;
  minkowski.p = 4.0;
  add(std::make_shared<SpectralClusterer>("minkowski", minkowski));
  DistanceSpec hamming;
  hamming.metric = Metric::kHamming;
  add(std::make_shared<SpectralClusterer>("hamming", hamming));
  add(std::make_shared<HierarchicalClusterer>());
}

ClustererRegistry& ClustererRegistry::Instance() {
  static ClustererRegistry* registry = new ClustererRegistry();
  return *registry;
}

}  // namespace logr
