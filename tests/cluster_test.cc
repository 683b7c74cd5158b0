#include <algorithm>
#include <cmath>
#include <set>

#include "cluster/clusterer.h"
#include "cluster/distance.h"
#include "cluster/hierarchical.h"
#include "cluster/kmeans.h"
#include "cluster/spectral.h"
#include "gtest/gtest.h"
#include "oracles/distance_name.h"
#include "util/prng.h"

namespace logr {
namespace {

// Two well-separated groups of binary vectors over disjoint feature
// ranges, with noise.
struct TwoBlobs {
  std::vector<FeatureVec> vecs;
  std::vector<int> truth;
};

TwoBlobs MakeTwoBlobs(std::size_t per_group, std::size_t n, Pcg32* rng) {
  TwoBlobs out;
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t i = 0; i < per_group; ++i) {
      std::vector<FeatureId> ids;
      std::size_t lo = g == 0 ? 0 : n / 2;
      std::size_t hi = g == 0 ? n / 2 : n;
      for (std::size_t f = lo; f < hi; ++f) {
        if (rng->NextBernoulli(0.6)) ids.push_back(static_cast<FeatureId>(f));
      }
      if (ids.empty()) ids.push_back(static_cast<FeatureId>(lo));
      out.vecs.push_back(FeatureVec(std::move(ids)));
      out.truth.push_back(static_cast<int>(g));
    }
  }
  return out;
}

// Fraction of pairs whose co-clustering matches the ground truth
// (Rand index).
double RandIndex(const std::vector<int>& a, const std::vector<int>& b) {
  std::size_t agree = 0, total = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = i + 1; j < a.size(); ++j) {
      bool same_a = a[i] == a[j];
      bool same_b = b[i] == b[j];
      if (same_a == same_b) ++agree;
      ++total;
    }
  }
  return static_cast<double>(agree) / static_cast<double>(total);
}

TEST(DistanceTest, SymmetricDifferenceKnown) {
  FeatureVec a({1, 2, 3});
  FeatureVec b({2, 3, 4, 5});
  EXPECT_EQ(SymmetricDifference(a, b), 3u);
  EXPECT_EQ(SymmetricDifference(a, a), 0u);
}

TEST(DistanceTest, MetricFormulas) {
  FeatureVec a({0, 1});
  FeatureVec b({1, 2, 3});
  const std::size_t n = 10;
  // symmetric difference = 3
  DistanceSpec spec;
  spec.metric = Metric::kEuclidean;
  EXPECT_NEAR(Distance(a, b, n, spec), std::sqrt(3.0), 1e-12);
  spec.metric = Metric::kManhattan;
  EXPECT_NEAR(Distance(a, b, n, spec), 3.0, 1e-12);
  spec.metric = Metric::kMinkowski;
  spec.p = 4.0;
  EXPECT_NEAR(Distance(a, b, n, spec), std::pow(3.0, 0.25), 1e-12);
  spec.metric = Metric::kHamming;
  EXPECT_NEAR(Distance(a, b, n, spec), 0.3, 1e-12);
}

TEST(DistanceTest, IdentityAndSymmetry) {
  Pcg32 rng(3);
  for (int t = 0; t < 20; ++t) {
    std::vector<FeatureId> ia, ib;
    for (FeatureId f = 0; f < 12; ++f) {
      if (rng.NextBernoulli(0.4)) ia.push_back(f);
      if (rng.NextBernoulli(0.4)) ib.push_back(f);
    }
    FeatureVec a(std::move(ia)), b(std::move(ib));
    for (Metric m : {Metric::kEuclidean, Metric::kManhattan,
                     Metric::kMinkowski, Metric::kHamming}) {
      DistanceSpec spec;
      spec.metric = m;
      EXPECT_DOUBLE_EQ(Distance(a, a, 12, spec), 0.0);
      EXPECT_DOUBLE_EQ(Distance(a, b, 12, spec), Distance(b, a, 12, spec));
    }
  }
}

TEST(DistanceTest, CondensedSymmetricMatchesPairDistance) {
  Pcg32 rng(5);
  TwoBlobs blobs = MakeTwoBlobs(6, 10, &rng);
  DistanceSpec spec;
  CondensedDistances d =
      CondensedDistanceMatrix(blobs.vecs, 10, spec, ThreadPool::Shared());
  ASSERT_EQ(d.size(), blobs.vecs.size());
  for (std::size_t i = 0; i < d.size(); ++i) {
    for (std::size_t j = 0; j < d.size(); ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(d.at(i, j), d.at(j, i));
      EXPECT_DOUBLE_EQ(d.at(i, j),
                       Distance(blobs.vecs[i], blobs.vecs[j], 10, spec));
    }
  }
}

TEST(KMeansTest, RecoversTwoBlobs) {
  Pcg32 rng(7);
  TwoBlobs blobs = MakeTwoBlobs(20, 16, &rng);
  ClusterRequest req;
  req.k = 2;
  req.num_features = 16;
  req.seed = 3;
  ClusteringResult r = KMeansSparse(blobs.vecs, {}, req);
  EXPECT_GE(RandIndex(r.assignment, blobs.truth), 0.95);
}

TEST(KMeansTest, KOneGivesSingleCluster) {
  Pcg32 rng(9);
  TwoBlobs blobs = MakeTwoBlobs(5, 8, &rng);
  ClusterRequest req;
  req.k = 1;
  req.num_features = 8;
  ClusteringResult r = KMeansSparse(blobs.vecs, {}, req);
  for (int a : r.assignment) EXPECT_EQ(a, 0);
}

TEST(KMeansTest, InertiaDecreasesWithK) {
  Pcg32 rng(11);
  TwoBlobs blobs = MakeTwoBlobs(25, 20, &rng);
  double prev = 1e300;
  for (std::size_t k : {1u, 2u, 4u, 8u}) {
    ClusterRequest req;
    req.k = k;
    req.num_features = 20;
    req.seed = 5;
    req.n_init = 4;
    ClusteringResult r = KMeansSparse(blobs.vecs, {}, req);
    EXPECT_LE(r.inertia, prev + 1e-9) << "k=" << k;
    prev = r.inertia;
  }
}

TEST(KMeansTest, WeightsPullCentroids) {
  // Two identical groups; giving one vector huge weight should never
  // leave its cluster empty.
  std::vector<FeatureVec> vecs = {FeatureVec({0}), FeatureVec({0}),
                                  FeatureVec({5})};
  std::vector<double> w = {1.0, 1.0, 1000.0};
  ClusterRequest req;
  req.k = 2;
  req.num_features = 6;
  ClusteringResult r = KMeansSparse(vecs, w, req);
  EXPECT_NE(r.assignment[2], r.assignment[0]);
}

TEST(KMeansTest, DenseMatchesExpectations) {
  std::vector<Vector> pts = {{0.0, 0.0}, {0.1, 0.0}, {5.0, 5.0},
                             {5.1, 4.9}};
  ClusteringResult r = KMeansDense(pts, {}, /*k=*/2, /*seed=*/17,
                                   /*n_init=*/4, /*pool=*/nullptr);
  EXPECT_EQ(r.assignment[0], r.assignment[1]);
  EXPECT_EQ(r.assignment[2], r.assignment[3]);
  EXPECT_NE(r.assignment[0], r.assignment[2]);
}

TEST(KMeansTest, MoreClustersThanPointsClamped) {
  std::vector<FeatureVec> vecs = {FeatureVec({0}), FeatureVec({1})};
  ClusterRequest req;
  req.k = 10;
  req.num_features = 2;
  ClusteringResult r = KMeansSparse(vecs, {}, req);
  EXPECT_EQ(std::set<int>(r.assignment.begin(), r.assignment.end()),
            (std::set<int>{0, 1}));
}

class SpectralMetricTest : public ::testing::TestWithParam<Metric> {};

TEST_P(SpectralMetricTest, RecoversTwoBlobs) {
  Pcg32 rng(13);
  TwoBlobs blobs = MakeTwoBlobs(15, 14, &rng);
  DistanceSpec spec;
  spec.metric = GetParam();
  spec.p = 4.0;
  ClusteringResult r = SpectralCluster(
      CondensedDistanceMatrix(blobs.vecs, 14, spec, ThreadPool::Shared()), {},
      /*k=*/2, /*seed=*/7, /*n_init=*/4, ThreadPool::Shared());
  EXPECT_GE(RandIndex(r.assignment, blobs.truth), 0.9)
      << "metric " << DistanceName(spec);
}

INSTANTIATE_TEST_SUITE_P(AllMetrics, SpectralMetricTest,
                         ::testing::Values(Metric::kEuclidean,
                                           Metric::kManhattan,
                                           Metric::kMinkowski,
                                           Metric::kHamming));

TEST(SpectralTest, KOneTrivial) {
  Pcg32 rng(15);
  TwoBlobs blobs = MakeTwoBlobs(4, 8, &rng);
  ClusterRequest req;
  req.k = 1;
  req.num_features = 8;
  std::vector<int> assignment =
      Cluster(ClusteringMethod::kSpectralHamming, blobs.vecs, {}, req);
  ASSERT_EQ(assignment.size(), blobs.vecs.size());
  for (int a : assignment) EXPECT_EQ(a, 0);
}

TEST(ClusterTest, KOneBuildsNeitherPoolNorStore) {
  // Without a shared pool a store-based fit packs locally before it
  // fills the store; at k = 1 Cluster returns before either happens.
  Pcg32 rng(19);
  TwoBlobs blobs = MakeTwoBlobs(6, 10, &rng);
  ClusterRequest req;
  req.k = 1;
  req.num_features = 10;
  for (ClusteringMethod m : {ClusteringMethod::kHierarchicalAverage,
                             ClusteringMethod::kSpectralHamming}) {
    const std::uint64_t builds = PackedVecPool::BuildCount();
    std::vector<int> assignment = Cluster(m, blobs.vecs, {}, req);
    EXPECT_EQ(PackedVecPool::BuildCount(), builds) << ClusteringMethodName(m);
    EXPECT_EQ(assignment, std::vector<int>(blobs.vecs.size(), 0))
        << ClusteringMethodName(m);
  }
}

TEST(HierarchicalTest, CutSizesAreExact) {
  Pcg32 rng(17);
  TwoBlobs blobs = MakeTwoBlobs(10, 12, &rng);
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  Dendrogram dg = AgglomerativeAverageLinkage(
      CondensedDistanceMatrix(blobs.vecs, 12, spec, nullptr), {});
  for (std::size_t k = 1; k <= blobs.vecs.size(); ++k) {
    std::vector<int> cut = dg.CutToK(k);
    std::set<int> labels(cut.begin(), cut.end());
    EXPECT_EQ(labels.size(), k) << "k=" << k;
  }
}

TEST(HierarchicalTest, CutsAreMonotone) {
  // Cutting at K+1 must refine the cut at K: any two leaves together at
  // K+1 are together at K (paper Sec. 6.1.1's monotonic assignments).
  Pcg32 rng(19);
  TwoBlobs blobs = MakeTwoBlobs(12, 10, &rng);
  DistanceSpec spec;
  Dendrogram dg = AgglomerativeAverageLinkage(
      CondensedDistanceMatrix(blobs.vecs, 10, spec, nullptr), {});
  for (std::size_t k = 1; k + 1 <= blobs.vecs.size(); ++k) {
    std::vector<int> coarse = dg.CutToK(k);
    std::vector<int> fine = dg.CutToK(k + 1);
    for (std::size_t i = 0; i < coarse.size(); ++i) {
      for (std::size_t j = i + 1; j < coarse.size(); ++j) {
        if (fine[i] == fine[j]) {
          EXPECT_EQ(coarse[i], coarse[j])
              << "k=" << k << " leaves " << i << "," << j;
        }
      }
    }
  }
}

TEST(HierarchicalTest, RecoversTwoBlobsAtK2) {
  Pcg32 rng(21);
  TwoBlobs blobs = MakeTwoBlobs(12, 12, &rng);
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  Dendrogram dg = AgglomerativeAverageLinkage(
      CondensedDistanceMatrix(blobs.vecs, 12, spec, nullptr), {});
  std::vector<int> cut = dg.CutToK(2);
  EXPECT_GE(RandIndex(cut, blobs.truth), 0.95);
}

TEST(HierarchicalTest, CutToKUsesHeightNotRecordOrder) {
  // NN-chain order is not height order: the first recorded merge here is
  // the second lowest, so a cut that undid merges in record order would
  // split {2, 3} before {0, 1}.
  Dendrogram dg;
  dg.num_leaves = 4;
  dg.merge_a = {0, 2, 4};
  dg.merge_b = {1, 3, 5};
  dg.height = {3.0, 1.0, 5.0};
  EXPECT_EQ(dg.CutToK(3), (std::vector<int>{0, 1, 2, 2}));
  EXPECT_EQ(dg.CutToK(2), (std::vector<int>{0, 0, 1, 1}));
}

TEST(HierarchicalTest, SingleLeafDegenerate) {
  Dendrogram dg = AgglomerativeAverageLinkage(CondensedDistances(1), {});
  EXPECT_EQ(dg.num_leaves, 1u);
  EXPECT_EQ(dg.CutToK(1), std::vector<int>{0});
}

}  // namespace
}  // namespace logr
