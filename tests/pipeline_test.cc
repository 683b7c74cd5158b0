// Tests for the clustering methods, the thread pool, and Compress /
// CompressAdaptive: parallel kernels must be bit-identical to serial
// ones, and every method name must round-trip and cluster. Whole runs
// at every pool size are equivalence_test's pool and adaptive legs.
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "cluster/distance.h"
#include "core/logr_compressor.h"
#include "gtest/gtest.h"
#include "util/prng.h"
#include "util/thread_pool.h"

namespace logr {
namespace {

std::vector<FeatureVec> RandomVectors(std::size_t count, std::size_t n,
                                      Pcg32* rng) {
  std::vector<FeatureVec> vecs;
  vecs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<FeatureId> ids;
    for (std::size_t f = 0; f < n; ++f) {
      if (rng->NextBernoulli(0.3)) ids.push_back(static_cast<FeatureId>(f));
    }
    if (ids.empty()) ids.push_back(static_cast<FeatureId>(i % n));
    vecs.push_back(FeatureVec(std::move(ids)));
  }
  return vecs;
}

QueryLog GroupedLog(std::size_t groups, std::size_t per_group,
                    std::uint64_t seed) {
  Pcg32 rng(seed);
  QueryLog log;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t i = 0; i < per_group; ++i) {
      std::vector<FeatureId> ids = {static_cast<FeatureId>(g * 8)};
      for (std::size_t f = 1; f < 8; ++f) {
        if (rng.NextBernoulli(0.5)) {
          ids.push_back(static_cast<FeatureId>(g * 8 + f));
        }
      }
      log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(30));
    }
  }
  return log;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool single(1);
  ThreadPool wide(4);
  const std::vector<ThreadPool*> pools = {nullptr, &single, &wide};
  for (ThreadPool* pool : pools) {
    const std::size_t threads = pool ? pool->NumThreads() : 0;
    for (std::size_t grain : {1u, 64u}) {
      for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 1000u}) {
        // An offset range checks that indices start at `begin`.
        const std::size_t begin = 5;
        std::vector<std::atomic<int>> hits(begin + n);
        for (auto& h : hits) h.store(0);
        ParallelFor(pool, begin, begin + n, grain,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < hits.size(); ++i) {
          EXPECT_EQ(hits[i].load(), i < begin ? 0 : 1)
              << "i=" << i << " n=" << n << " grain=" << grain
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ThreadPoolTest, DegeneratePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.NumThreads(), 1u);
  int sum = 0;
  // Non-atomic accumulator is safe: a 1-thread pool runs on the caller,
  // even for a coarse loop.
  ParallelFor(&pool, 0, 10, kCoarseGrain,
              [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPoolTest, ParallelForRethrowsOnTheCaller) {
  ThreadPool single(1);
  ThreadPool wide(4);
  const std::vector<ThreadPool*> pools = {nullptr, &single, &wide};
  // Every thrower raises the same error, so whichever is first the
  // caller sees it; the loop then stops claiming blocks.
  auto boom = [](std::size_t i) {
    if (i % 100 == 7) throw std::runtime_error("boom");
  };
  for (ThreadPool* pool : pools) {
    for (std::size_t grain : {kCoarseGrain, kFineGrain}) {
      const std::size_t threads = pool ? pool->NumThreads() : 0;
      EXPECT_THROW(ParallelFor(pool, 0, 1000, grain, boom), std::runtime_error)
          << "threads=" << threads << " grain=" << grain;
      // The pool stays usable after a failed loop.
      std::atomic<std::size_t> ran{0};
      ParallelFor(pool, 0, 100, grain, [&](std::size_t) { ran.fetch_add(1); });
      EXPECT_EQ(ran.load(), 100u) << "threads=" << threads;
    }
  }
}

TEST(DistanceMatrixTest, ParallelBitIdenticalToSerial) {
  Pcg32 rng(101);
  const std::size_t n = 40;
  std::vector<FeatureVec> vecs = RandomVectors(120, n, &rng);
  for (Metric metric :
       {Metric::kEuclidean, Metric::kManhattan, Metric::kHamming}) {
    DistanceSpec spec;
    spec.metric = metric;
    const CondensedDistances serial =
        CondensedDistanceMatrix(vecs, n, spec, /*pool=*/nullptr);
    ThreadPool pool(5);
    const CondensedDistances parallel =
        CondensedDistanceMatrix(vecs, n, spec, &pool);
    const CondensedDistances merge =
        DistanceMatrixMerge(vecs, n, spec, &pool);
    ASSERT_EQ(parallel.size(), serial.size());
    ASSERT_EQ(merge.size(), serial.size());
    for (std::size_t i = 0; i < vecs.size(); ++i) {
      for (std::size_t j = i + 1; j < vecs.size(); ++j) {
        // Exact equality: the parallel schedule must not change a bit,
        // and neither may the kernel.
        ASSERT_EQ(merge.at(i, j), serial.at(i, j))
            << "metric=" << static_cast<int>(metric) << " merge (" << i
            << "," << j << ")";
        ASSERT_EQ(serial.at(i, j), parallel.at(i, j))
            << "metric=" << static_cast<int>(metric) << " (" << i << ","
            << j << ")";
      }
    }
  }
}

TEST(ClusteringMethodTest, RoundTripsEveryBuiltInMethod) {
  for (ClusteringMethod m :
       {ClusteringMethod::kKMeansEuclidean,
        ClusteringMethod::kSpectralManhattan,
        ClusteringMethod::kSpectralMinkowski,
        ClusteringMethod::kSpectralHamming,
        ClusteringMethod::kHierarchicalAverage}) {
    const char* name = ClusteringMethodName(m);
    ClusteringMethod parsed;
    ASSERT_TRUE(ParseClusteringMethod(name, &parsed)) << name;
    EXPECT_EQ(parsed, m) << name;
  }
  // "kmeans" is the CLI spelling of "KmeansEuclidean".
  ClusteringMethod parsed = ClusteringMethod::kSpectralHamming;
  ASSERT_TRUE(ParseClusteringMethod("kmeans", &parsed));
  EXPECT_EQ(parsed, ClusteringMethod::kKMeansEuclidean);
  EXPECT_STREQ(ClusteringMethodName(parsed), "KmeansEuclidean");
  // An unknown name leaves the output untouched.
  parsed = ClusteringMethod::kSpectralHamming;
  EXPECT_FALSE(ParseClusteringMethod("no-such-method", &parsed));
  EXPECT_EQ(parsed, ClusteringMethod::kSpectralHamming);
}

TEST(ClusteringMethodTest, BackendsProduceValidAssignments) {
  Pcg32 rng(7);
  std::vector<FeatureVec> vecs = RandomVectors(30, 12, &rng);
  ClusterRequest req;
  req.k = 3;
  req.num_features = 12;
  for (ClusteringMethod m :
       {ClusteringMethod::kKMeansEuclidean,
        ClusteringMethod::kSpectralManhattan,
        ClusteringMethod::kSpectralMinkowski,
        ClusteringMethod::kSpectralHamming,
        ClusteringMethod::kHierarchicalAverage}) {
    const char* name = ClusteringMethodName(m);
    std::vector<int> assignment = Cluster(m, vecs, {}, req);
    ASSERT_EQ(assignment.size(), vecs.size()) << name;
    for (int a : assignment) {
      EXPECT_GE(a, 0) << name;
      EXPECT_LT(a, 3) << name;
    }
  }
}

TEST(PipelineTest, AdaptiveBuildsNoPackedPool) {
  // Every bisection clusters a subset, which a pool over the whole log
  // cannot serve, so the adaptive path packs nothing.
  QueryLog log = GroupedLog(5, 8, 41);
  LogROptions opts;
  opts.num_clusters = 8;
  LogRSummary s = CompressAdaptive(log, opts);
  EXPECT_GT(s.Model().NumComponents(), 1u);
  EXPECT_EQ(s.pool_builds, 0u);
  EXPECT_EQ(s.pack_seconds, 0.0);
}

TEST(PipelineTest, StageTimingsAreOrdered) {
  QueryLog log = GroupedLog(3, 8, 13);
  LogROptions opts;
  opts.num_clusters = 3;
  LogRSummary s = Compress(log, opts);
  EXPECT_GE(s.cluster_seconds, 0.0);
  EXPECT_GE(s.total_seconds, s.cluster_seconds);
}

TEST(PipelineTest, DefaultEncoderIgnoresEnvironment) {
  // The library reads no encoder knob from the process environment: a
  // LOGR_ENCODER left in the shell cannot change what the default
  // options build.
  QueryLog log = GroupedLog(3, 8, 13);
  LogROptions opts;
  opts.num_clusters = 3;
  ASSERT_EQ(setenv("LOGR_ENCODER", "pattern", 1), 0);
  const LogRSummary s = Compress(log, opts);
  unsetenv("LOGR_ENCODER");
  EXPECT_STREQ(s.Model().EncoderName(), "naive");
}

TEST(PipelineTest, RefinedEncoderNeverWorsensError) {
  QueryLog log = GroupedLog(3, 12, 59);
  LogROptions opts;
  opts.num_clusters = 2;
  // refine_patterns alone is only the refined encoder's budget: it does
  // not pick the encoder.
  opts.refine_patterns = 4;
  EXPECT_EQ(opts.encoder, "naive");
  EXPECT_STREQ(Compress(log, opts).Model().EncoderName(), "naive");
  opts.encoder = "refined";
  LogRSummary s = Compress(log, opts);
  EXPECT_STREQ(s.Model().EncoderName(), "refined");
  EXPECT_LE(s.Model().Error(), s.Model().BaseError() + 1e-9);
  for (std::size_t c = 0; c < s.Model().NumComponents(); ++c) {
    EXPECT_LE(s.Model().ComponentPatterns(c).size(), 4u) << c;
    // Verbosity counts retained patterns on top of the naive marginals.
    EXPECT_GE(s.Model().ComponentVerbosity(c),
              s.Model().ComponentFeatures(c).size());
  }
  // The naive encoder reports BaseError == Error and no patterns.
  opts.refine_patterns = 0;
  opts.encoder = "naive";
  LogRSummary plain = Compress(log, opts);
  EXPECT_STREQ(plain.Model().EncoderName(), "naive");
  EXPECT_EQ(plain.Model().Error(), plain.Model().BaseError());
  EXPECT_TRUE(plain.Model().ComponentPatterns(0).empty());
}

}  // namespace
}  // namespace logr
