// Tests for the fast clustering core: packed-kernel vs merge-kernel
// distance bit-identity of the condensed store (all six metrics, fuzzed
// vectors, every pool size), the pair-list variant, cached-NN
// agglomeration vs the pre-change serial reference (including the
// pool-dispatched path), the NN-chain slot list and chunked argmin
// fold, every backend's no-pool fallback, spectral
// bit-determinism across pool sizes, and the multi-core perf guardrail
// for the parallel distance fill.
#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/clusterer.h"
#include "cluster/distance.h"
#include "cluster/hierarchical.h"
#include "cluster/nn_chain.h"
#include "cluster/spectral.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "oracles/hierarchical_reference.h"
#include "util/prng.h"
#include "workload/loader.h"

namespace logr {
namespace {

QueryLog PocketLog() {
  PocketDataOptions gen;
  gen.num_distinct = 150;
  gen.total_queries = 30000;
  return LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
}

QueryLog BankLog() {
  BankLogOptions gen;
  gen.num_templates = 200;
  gen.total_queries = 60000;
  gen.noise_entries = 20;
  return LoadEntries(GenerateBankLog(gen)).TakeLog();
}

std::vector<FeatureVec> Vectors(const QueryLog& log) {
  std::vector<FeatureVec> vecs;
  vecs.reserve(log.NumDistinct());
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    vecs.push_back(log.Vector(i));
  }
  return vecs;
}

std::vector<DistanceSpec> AllMetrics() {
  std::vector<DistanceSpec> specs;
  for (Metric m : {Metric::kEuclidean, Metric::kManhattan, Metric::kMinkowski,
                   Metric::kHamming, Metric::kChebyshev, Metric::kCanberra}) {
    DistanceSpec s;
    s.metric = m;
    specs.push_back(s);
  }
  return specs;
}

/// Random sparse vectors over an n-feature universe; may be empty, may
/// repeat (duplicate vectors are legal distance-matrix inputs).
std::vector<FeatureVec> FuzzVectors(Pcg32* rng, std::size_t count,
                                    std::size_t n) {
  std::vector<FeatureVec> vecs;
  vecs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t len = rng->NextBounded(41);  // 0..40 ids
    std::vector<FeatureId> ids;
    ids.reserve(len);
    for (std::size_t j = 0; j < len; ++j) {
      ids.push_back(static_cast<FeatureId>(
          rng->NextBounded(static_cast<std::uint32_t>(n))));
    }
    vecs.push_back(FeatureVec(std::move(ids)));  // sorts + dedups
  }
  return vecs;
}

TEST(PackedDistanceTest, SymmetricDifferenceMatchesMergeKernelFuzzed) {
  Pcg32 rng(7);
  for (int round = 0; round < 20; ++round) {
    const std::size_t n = 1 + rng.NextBounded(400);
    std::vector<FeatureVec> vecs = FuzzVectors(&rng, 24, n);
    PackedVecPool packed(vecs, n);
    for (std::size_t i = 0; i < vecs.size(); ++i) {
      for (std::size_t j = 0; j < vecs.size(); ++j) {
        ASSERT_EQ(packed.SymmetricDifference(i, j),
                  SymmetricDifference(vecs[i], vecs[j]))
            << "round " << round << " pair (" << i << ", " << j << ")";
      }
    }
  }
}

/// Asserts `got` and `want` hold exactly the same off-diagonal entries,
/// through both the row layout and the symmetric accessor.
void ExpectCondensedEqual(const CondensedDistances& got,
                          const CondensedDistances& want,
                          const std::string& what) {
  const std::size_t count = want.size();
  ASSERT_EQ(got.size(), count) << what;
  ASSERT_EQ(got.bytes(),
            (count < 2 ? 0 : count * (count - 1) / 2) * sizeof(double))
      << what;
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = i + 1; j < count; ++j) {
      // Exact equality: both kernels map the same exact integer through
      // the same metric function.
      ASSERT_EQ(got.Row(i)[j - i - 1], want.Row(i)[j - i - 1])
          << what << " (" << i << ", " << j << ")";
      ASSERT_EQ(got.at(j, i), want.at(i, j))
          << what << " mirror (" << j << ", " << i << ")";
    }
  }
}

TEST(PackedDistanceTest, CondensedBitIdenticalToMergeKernelAllMetrics) {
  Pcg32 rng(11);
  for (int round = 0; round < 6; ++round) {
    const std::size_t n = 1 + rng.NextBounded(300);
    std::vector<FeatureVec> vecs = FuzzVectors(&rng, 40, n);
    for (const DistanceSpec& spec : AllMetrics()) {
      const CondensedDistances reference =
          DistanceMatrixMerge(vecs, n, spec, /*pool=*/nullptr);
      ExpectCondensedEqual(CondensedDistanceMatrix(vecs, n, spec, nullptr),
                           reference, spec.Name());
      ThreadPool pool(4);
      ExpectCondensedEqual(CondensedDistanceMatrix(vecs, n, spec, &pool),
                           reference, spec.Name() + " parallel");
    }
  }
}

TEST(PackedDistanceTest, CondensedBitIdenticalOnRealLogs) {
  for (const QueryLog& log : {PocketLog(), BankLog()}) {
    const std::vector<FeatureVec> vecs = Vectors(log);
    DistanceSpec spec;
    spec.metric = Metric::kHamming;
    ExpectCondensedEqual(
        CondensedDistanceMatrix(vecs, log.NumFeatures(), spec, nullptr),
        DistanceMatrixMerge(vecs, log.NumFeatures(), spec, nullptr),
        spec.Name());
  }
}

TEST(CondensedDistanceTest, FillEqualsMergeKernelFuzzed) {
  Pcg32 rng(13);
  ThreadPool one(1);
  ThreadPool four(4);
  // Sizes straddle the 128-point tile edge, plus the degenerate stores.
  for (std::size_t count : {0u, 1u, 2u, 127u, 128u, 129u, 300u}) {
    const std::size_t n = 1 + rng.NextBounded(300);
    std::vector<FeatureVec> vecs = FuzzVectors(&rng, count, n);
    // Guarantee empty vectors, at the front and mid-tile.
    if (count > 0) vecs.front() = FeatureVec();
    if (count > 2) vecs[count / 2] = FeatureVec();
    const PackedVecPool packed(vecs, n);
    for (const DistanceSpec& spec : AllMetrics()) {
      const CondensedDistances merge =
          DistanceMatrixMerge(vecs, n, spec, nullptr);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one,
                               &four}) {
        const std::string what =
            spec.Name() + " N=" + std::to_string(count) + " threads=" +
            std::to_string(pool ? pool->NumThreads() : 0);
        ExpectCondensedEqual(CondensedDistanceMatrix(packed, spec, pool),
                             merge, what);
        ExpectCondensedEqual(CondensedDistanceMatrix(vecs, n, spec, pool),
                             merge, what + " (unpacked)");
        ExpectCondensedEqual(DistanceMatrixMerge(vecs, n, spec, pool), merge,
                             what + " (merge)");
      }
    }
  }
}

TEST(CondensedDistanceTest, FillEqualsMergeKernelOnRealLogs) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (const QueryLog& log : {PocketLog(), BankLog()}) {
    const std::vector<FeatureVec> vecs = Vectors(log);
    const PackedVecPool packed(vecs, log.NumFeatures());
    for (const DistanceSpec& spec : AllMetrics()) {
      const CondensedDistances merge =
          DistanceMatrixMerge(vecs, log.NumFeatures(), spec, nullptr);
      for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one,
                               &four}) {
        ExpectCondensedEqual(CondensedDistanceMatrix(packed, spec, pool),
                             merge, spec.Name());
      }
    }
  }
}

TEST(CondensedDistanceTest, MergeKernelFallbackBeyondPackedBudget) {
  // A universe of three billion features: packing even three vectors
  // would blow PackedPoolFits' budget, so the store comes from the
  // merge kernel instead — with the same values.
  const std::size_t n = 3000000000u;
  ASSERT_FALSE(PackedPoolFits(3, n));
  const std::vector<FeatureVec> vecs = {
      FeatureVec({1, 2999999999u}), FeatureVec(),
      FeatureVec({1, 7, 2000000000u})};
  for (const DistanceSpec& spec : AllMetrics()) {
    ExpectCondensedEqual(CondensedDistanceMatrix(vecs, n, spec, nullptr),
                         DistanceMatrixMerge(vecs, n, spec, nullptr),
                         spec.Name());
  }
}

TEST(PackedDistanceTest, PairListMatchesDirectDistances) {
  Pcg32 rng(23);
  const std::size_t n = 200;
  std::vector<FeatureVec> vecs = FuzzVectors(&rng, 30, n);
  PackedVecPool packed(vecs, n);
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  for (int p = 0; p < 200; ++p) {
    pairs.emplace_back(rng.NextBounded(30), rng.NextBounded(30));
  }
  DistanceSpec spec;
  spec.metric = Metric::kMinkowski;
  ThreadPool pool(3);
  std::vector<double> out = DistancePairs(packed, pairs, spec, &pool);
  ASSERT_EQ(out.size(), pairs.size());
  for (std::size_t p = 0; p < pairs.size(); ++p) {
    EXPECT_EQ(out[p],
              Distance(vecs[pairs[p].first], vecs[pairs[p].second], n, spec));
  }
}

void ExpectDendrogramsEqual(const Dendrogram& a, const Dendrogram& b) {
  ASSERT_EQ(a.num_leaves, b.num_leaves);
  ASSERT_EQ(a.merge_a, b.merge_a);
  ASSERT_EQ(a.merge_b, b.merge_b);
  ASSERT_EQ(a.height.size(), b.height.size());
  for (std::size_t i = 0; i < a.height.size(); ++i) {
    // Exact: the fast path performs the identical arithmetic.
    ASSERT_EQ(a.height[i], b.height[i]) << "merge " << i;
  }
}

TEST(FastAgglomerationTest, MatchesReferenceOnRealLogsAcrossPools) {
  for (const QueryLog& log : {PocketLog(), BankLog()}) {
    const std::vector<FeatureVec> vecs = Vectors(log);
    DistanceSpec spec;
    spec.metric = Metric::kHamming;
    const CondensedDistances d =
        DistanceMatrixMerge(vecs, log.NumFeatures(), spec, nullptr);
    std::vector<double> weights;
    for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
      weights.push_back(static_cast<double>(log.Multiplicity(i)));
    }
    const Dendrogram reference =
        AgglomerativeAverageLinkageReference(d, weights);
    // The production input: the condensed fill over a packed pool.
    const PackedVecPool packed(vecs, log.NumFeatures());
    auto condensed = [&] {
      return CondensedDistanceMatrix(packed, spec, nullptr);
    };
    // Dendrogram equality vs the pre-change serial output, for every
    // pool size (LOGR_THREADS ∈ {1, 4} territory).
    ExpectDendrogramsEqual(
        AgglomerativeAverageLinkage(condensed(), weights, nullptr),
        reference);
    ThreadPool one(1);
    ExpectDendrogramsEqual(
        AgglomerativeAverageLinkage(condensed(), weights, &one), reference);
    ThreadPool four(4);
    ExpectDendrogramsEqual(
        AgglomerativeAverageLinkage(condensed(), weights, &four), reference);
    // Unweighted variant exercises the uniform-mass path.
    ExpectDendrogramsEqual(AgglomerativeAverageLinkage(condensed(), {}, &four),
                           AgglomerativeAverageLinkageReference(d, {}));
  }
}

TEST(FastAgglomerationTest, HierarchicalFitWithoutPackedPoolMatches) {
  // Every backend's fallback when the pipeline hands it no packed pool
  // (spectral and hierarchical pack locally, k-means seeds from the
  // merge kernel) must cluster exactly like the pooled path.
  const QueryLog log = BankLog();
  const std::vector<FeatureVec> vecs = Vectors(log);
  std::vector<double> weights;
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    weights.push_back(static_cast<double>(log.Multiplicity(i)));
  }
  const PackedVecPool packed(vecs, log.NumFeatures());
  ThreadPool four(4);
  ClusterRequest req;
  req.num_features = log.NumFeatures();
  req.pool = &four;
  req.n_init = 2;
  // Every registered backend, with the largest K it is cut at: spectral
  // stops at 40 because dense Lanczos near K = N costs seconds per run.
  const std::pair<const char*, std::size_t> backends[] = {
      {"KmeansEuclidean", 200}, {"manhattan", 40}, {"minkowski", 40},
      {"hamming", 40},          {"hierarchical", 200}};
  for (const auto& [name, max_k] : backends) {
    const Clusterer* backend = ClustererRegistry::Instance().Find(name);
    ASSERT_NE(backend, nullptr) << name;
    for (std::size_t k : {1u, 2u, 7u, 40u, 200u}) {
      if (k > max_k) break;
      req.k = k;
      req.packed = &packed;
      const std::vector<int> pooled = backend->Cluster(vecs, weights, req);
      req.packed = nullptr;
      EXPECT_EQ(backend->Cluster(vecs, weights, req), pooled)
          << name << " k=" << k;
    }
  }
}

/// A second store holding exactly `d`'s entries (the store is
/// move-only, and AgglomerativeAverageLinkage consumes its input).
CondensedDistances CopyOf(const CondensedDistances& d) {
  CondensedDistances out(d.size());
  for (std::size_t i = 0; i + 1 < d.size(); ++i) {
    std::copy(d.Row(i), d.Row(i) + (d.size() - i - 1), out.Row(i));
  }
  return out;
}

TEST(FastAgglomerationTest, MatchesReferenceOnFuzzedMatricesWithTies) {
  Pcg32 rng(31);
  for (int round = 0; round < 10; ++round) {
    const std::size_t n = 2 + rng.NextBounded(60);
    // Small integer distances force plenty of exact ties, stressing the
    // deterministic index tie-break in the cached-nearest path.
    CondensedDistances d(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        d.at(i, j) = static_cast<double>(rng.NextBounded(4));
      }
    }
    ThreadPool pool(4);
    ExpectDendrogramsEqual(
        AgglomerativeAverageLinkage(CopyOf(d), {}, &pool),
        AgglomerativeAverageLinkageReference(d, {}));
  }
}

/// `n` points at small-integer distances in [0, 4): ties everywhere.
/// Same seed, same store.
CondensedDistances TieHeavyDistances(std::size_t n, std::uint64_t seed) {
  Pcg32 rng(seed);
  CondensedDistances d(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    double* row = d.Row(i);
    for (std::size_t j = i + 1; j < n; ++j) {
      row[j - i - 1] = static_cast<double>(rng.NextBounded(4));
    }
  }
  return d;
}

TEST(FastAgglomerationTest, PoolDispatchedPathMatchesSerialAndReference) {
  // 4,400 slots is past the 4,096-slot parallel threshold (64 chunks of
  // 64 run inline). The slot list shrinks by one per merge, so for the
  // first 304 merges, until it is down to 4,096 slots, every nearest
  // scan and every fused Lance-Williams pass is split across the pool's
  // workers — a path the few-hundred-template logs above never reach.
  constexpr std::size_t kN = 4400;
  constexpr std::uint64_t kSeed = 37;
  ThreadPool four(4);
  const Dendrogram pooled =
      AgglomerativeAverageLinkage(TieHeavyDistances(kN, kSeed), {}, &four);
  ExpectDendrogramsEqual(
      pooled,
      AgglomerativeAverageLinkage(TieHeavyDistances(kN, kSeed), {}, nullptr));
  // The full-matrix oracle (it expands its input: 155 MB here).
  ExpectDendrogramsEqual(
      pooled,
      AgglomerativeAverageLinkageReference(TieHeavyDistances(kN, kSeed), {}));
}

/// Tie-heavy symmetric integer linkage in [0, 4) between slots i != j.
double TieLinkage(std::size_t i, std::size_t j) {
  std::uint64_t x = std::min(i, j) * 0x9E3779B97F4A7C15ULL + std::max(i, j);
  x ^= x >> 31;
  x *= 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 29;
  return static_cast<double>(x % 4);
}

TEST(NNChainScanTest, ExactSlotListAndArgmin) {
  // 4,300 slots is 68 chunks of 64, so on the four-thread pool the chunk
  // fold dispatches until the list drops to 64 chunks.
  constexpr std::size_t kN = 4300;
  ThreadPool one(1);
  ThreadPool four(4);
  ThreadPool* const pools[] = {nullptr, &one, &four};
  std::vector<std::unique_ptr<NNChainScan>> scans;
  for (ThreadPool* pool : pools) {
    scans.push_back(std::make_unique<NNChainScan>(kN, 64, pool));
  }
  std::vector<std::size_t> order(kN);
  std::iota(order.begin(), order.end(), 0);
  Pcg32 rng(43);
  for (std::size_t i = kN; i > 1; --i) {
    std::swap(order[i - 1],
              order[rng.NextBounded(static_cast<std::uint32_t>(i))]);
  }

  std::vector<std::uint8_t> active(kN, 1);
  for (std::size_t step = 0; step < kN; ++step) {
    active[order[step]] = 0;
    std::vector<std::uint32_t> expected;
    for (std::size_t s = 0; s < kN; ++s) {
      if (active[s]) expected.push_back(static_cast<std::uint32_t>(s));
    }
    for (auto& scan : scans) {
      scan->Deactivate(order[step]);
      ASSERT_EQ(scan->slots(), expected) << "step " << step;
    }
    if (step % 97 != 0 || expected.empty()) continue;

    const std::size_t a = expected[rng.NextBounded(
        static_cast<std::uint32_t>(expected.size()))];
    std::size_t want_arg = a;
    double want_best = std::numeric_limits<double>::max();
    for (std::size_t j = 0; j < kN; ++j) {
      if (!active[j] || j == a) continue;
      if (TieLinkage(a, j) < want_best) {
        want_best = TieLinkage(a, j);
        want_arg = j;
      }
    }
    for (auto& scan : scans) {
      const std::vector<std::uint32_t>& list = scan->slots();
      const std::pair<std::size_t, double> got =
          scan->Argmin(a, [&](std::size_t lo, std::size_t hi) {
            double best = std::numeric_limits<double>::max();
            std::size_t arg = NNChainScan::kNone;
            for (std::size_t p = lo; p < hi; ++p) {
              if (list[p] == a) continue;
              const double x = TieLinkage(a, list[p]);
              if (x < best) {
                best = x;
                arg = list[p];
              }
            }
            return std::make_pair(best, arg);
          });
      EXPECT_EQ(got.first, want_arg) << "step " << step << " a=" << a;
      EXPECT_EQ(got.second, want_best) << "step " << step << " a=" << a;
    }
  }
}

TEST(NNChainScanDeathTest, DeactivateTwiceDies) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  NNChainScan scan(8, 64, nullptr);
  scan.Deactivate(3);
  EXPECT_DEATH(scan.Deactivate(3), "LOGR_CHECK");
}

TEST(SpectralTest, BitIdenticalAcrossPoolSizes) {
  const QueryLog log = PocketLog();
  const std::vector<FeatureVec> vecs = Vectors(log);
  std::vector<double> weights;
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    weights.push_back(static_cast<double>(log.Multiplicity(i)));
  }
  auto run = [&](ThreadPool* pool) {
    SpectralOptions so;
    so.k = 6;
    so.seed = 5;
    so.n_init = 2;
    so.distance.metric = Metric::kManhattan;
    so.pool = pool;
    return SpectralCluster(vecs, weights, log.NumFeatures(), so).assignment;
  };
  ThreadPool one(1);
  const std::vector<int> baseline = run(&one);
  for (std::size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(run(&pool), baseline) << threads << " threads";
  }
}

TEST(SpectralTest, MedianAndAffinityMatchSerialAcrossPools) {
  Pcg32 rng(43);
  const std::size_t n = 80;
  CondensedDistances d(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      d.at(i, j) = static_cast<double>(rng.NextBounded(10)) / 3.0;
    }
  }
  const double serial_sigma = MedianNonzeroDistance(d, nullptr);
  Vector serial_degree;
  Matrix serial_w = GaussianAffinity(d, serial_sigma, &serial_degree, nullptr);
  ThreadPool pool(4);
  EXPECT_EQ(MedianNonzeroDistance(d, &pool), serial_sigma);
  Vector degree;
  Matrix w = GaussianAffinity(d, serial_sigma, &degree, &pool);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(degree[i], serial_degree[i]) << i;
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(w(i, j), serial_w(i, j)) << i << " " << j;
    }
  }
}

TEST(PerfGuardrailTest, ParallelDistanceMatrixBeatsSerialOnMultiCore) {
  // The ROADMAP's deferred multi-core guardrail: with >= 4 hardware
  // cores the pooled block-tiled fill must beat the single-thread
  // packed path. Skipped on smaller machines (CI containers with 1-2
  // cores would measure nothing but scheduler noise). The full
  // 1,712-template bank log gives ~100 tiles, and only the fill is
  // timed (the pool is packed once, outside), so the measured region is
  // the parallel part.
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < 4) {
    GTEST_SKIP() << "needs >= 4 cores, have " << cores;
  }
  const QueryLog log = LoadEntries(GenerateBankLog(BankLogOptions())).TakeLog();
  ASSERT_GE(log.NumDistinct(), 1712u);
  const PackedVecPool packed(Vectors(log), log.NumFeatures());
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  auto time_run = [&](ThreadPool* pool) {
    // Warm-up pass, then take the best of five timed runs — the
    // minimum is far less sensitive to noisy-neighbor contention on
    // shared runners than a mean or median.
    EXPECT_EQ(CondensedDistanceMatrix(packed, spec, pool).size(),
              packed.size());
    std::vector<double> times;
    for (int r = 0; r < 5; ++r) {
      const auto start = std::chrono::steady_clock::now();
      CondensedDistances d = CondensedDistanceMatrix(packed, spec, pool);
      const auto stop = std::chrono::steady_clock::now();
      times.push_back(std::chrono::duration<double>(stop - start).count() +
                      0.0 * d.at(0, 1));  // keep the result alive
    }
    return *std::min_element(times.begin(), times.end());
  };
  const double serial = time_run(nullptr);
  ThreadPool pool(4);
  const double parallel = time_run(&pool);
  EXPECT_LT(parallel, serial)
      << "parallel " << parallel << "s vs serial " << serial << "s";
}

}  // namespace
}  // namespace logr
