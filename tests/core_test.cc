#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "core/itemsets.h"
#include "core/logr_compressor.h"
#include "core/mixture.h"
#include "core/naive_encoding.h"
#include "core/pattern_encoding.h"
#include "core/refine.h"
#include "core/synthesis.h"
#include "gtest/gtest.h"
#include "maxent/entropy.h"
#include "util/prng.h"

namespace logr {
namespace {

// The toy log of paper Section 5.1. Features:
//   0 = <id, SELECT>, 1 = <sms_type, SELECT>, 2 = <Messages, FROM>,
//   3 = <status = ?, WHERE>
QueryLog ToyLog() {
  QueryLog log;
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "id"});
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "sms_type"});
  log.mutable_vocabulary()->Intern({FeatureClause::kFrom, "messages"});
  log.mutable_vocabulary()->Intern({FeatureClause::kWhere, "status = ?"});
  log.Add(FeatureVec({0, 2, 3}), 1);  // q1 = <1,0,1,1>
  log.Add(FeatureVec({0, 2}), 1);     // q2 = <1,0,1,0>
  log.Add(FeatureVec({1, 2}), 1);     // q3 = <0,1,1,0>
  return log;
}

TEST(NaiveEncodingTest, PaperSection51Marginals) {
  NaiveEncoding enc = NaiveEncoding::FromLog(ToyLog());
  // <2/3, 1/3, 1, 1/3>
  EXPECT_NEAR(enc.Marginal(0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(enc.Marginal(1), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(enc.Marginal(2), 1.0, 1e-12);
  EXPECT_NEAR(enc.Marginal(3), 1.0 / 3.0, 1e-12);
  EXPECT_EQ(enc.Verbosity(), 4u);
}

TEST(NaiveEncodingTest, ErrorIsMaxEntMinusEmpirical) {
  NaiveEncoding enc = NaiveEncoding::FromLog(ToyLog());
  double expected_maxent = BinaryEntropy(2.0 / 3.0) +
                           BinaryEntropy(1.0 / 3.0) + BinaryEntropy(1.0) +
                           BinaryEntropy(1.0 / 3.0);
  EXPECT_NEAR(enc.MaxEntEntropy(), expected_maxent, 1e-12);
  EXPECT_NEAR(enc.EmpiricalEntropy(), std::log(3.0), 1e-12);
  EXPECT_NEAR(enc.ReproductionError(), expected_maxent - std::log(3.0),
              1e-12);
  EXPECT_GE(enc.ReproductionError(), 0.0);
}

TEST(NaiveEncodingTest, UniformSingleQueryHasZeroError) {
  QueryLog log;
  log.Add(FeatureVec({0, 1, 2}), 100);
  NaiveEncoding enc = NaiveEncoding::FromLog(log);
  EXPECT_NEAR(enc.ReproductionError(), 0.0, 1e-12);
}

TEST(NaiveEncodingTest, EstimateMarginalProductForm) {
  NaiveEncoding enc = NaiveEncoding::FromLog(ToyLog());
  EXPECT_NEAR(enc.EstimateMarginal(FeatureVec({0, 3})), 2.0 / 9.0, 1e-12);
  EXPECT_NEAR(enc.EstimateCount(FeatureVec({0, 3})), 3.0 * 2.0 / 9.0, 1e-12);
  // Unknown feature -> zero.
  EXPECT_DOUBLE_EQ(enc.EstimateMarginal(FeatureVec({9})), 0.0);
}

TEST(NaiveEncodingTest, FromMarginalsPutsShuffledFeaturesInAscendingOrder) {
  // Merged id spaces hand FromMarginals their features out of order; the
  // encoding must list them ascending and sum its entropy in that order.
  Pcg32 rng(17);
  std::vector<std::pair<FeatureId, double>> entries;
  for (FeatureId f = 0; f < 200; f += 1 + rng.NextBounded(4)) {
    entries.emplace_back(f, 1e-9 + (1.0 - 1e-9) * rng.NextDouble());
  }
  std::vector<FeatureId> features;
  std::vector<double> marginals;
  for (const auto& [f, p] : entries) {
    features.push_back(f);
    marginals.push_back(p);
  }
  const NaiveEncoding sorted =
      NaiveEncoding::FromMarginals(features, marginals, 0.5, 1000);
  rng.Shuffle(&entries);
  features.clear();
  marginals.clear();
  for (const auto& [f, p] : entries) {
    features.push_back(f);
    marginals.push_back(p);
  }
  ASSERT_FALSE(std::is_sorted(features.begin(), features.end()));
  const NaiveEncoding shuffled =
      NaiveEncoding::FromMarginals(features, marginals, 0.5, 1000);

  EXPECT_TRUE(std::is_sorted(shuffled.features().begin(),
                             shuffled.features().end()));
  EXPECT_EQ(shuffled.features(), sorted.features());
  const double h[2] = {sorted.MaxEntEntropy(), shuffled.MaxEntEntropy()};
  EXPECT_EQ(std::memcmp(&h[0], &h[1], sizeof(double)), 0);
  for (const auto& [f, p] : entries) {
    const double m[2] = {sorted.Marginal(f), shuffled.Marginal(f)};
    EXPECT_EQ(std::memcmp(&m[0], &m[1], sizeof(double)), 0) << f;
  }
}

TEST(MixtureTest, PaperSection51PartitionIsLossless) {
  QueryLog log = ToyLog();
  // Partition 1 = {q1, q2}, Partition 2 = {q3}.
  std::vector<int> assignment = {0, 0, 1};
  NaiveMixtureEncoding mix =
      NaiveMixtureEncoding::FromPartition(log, assignment, 2);
  ASSERT_EQ(mix.NumComponents(), 2u);
  // Partition 1 encoding <1, 0, 1, 1/2>.
  const NaiveEncoding& e1 = mix.Component(0).encoding;
  EXPECT_NEAR(e1.Marginal(0), 1.0, 1e-12);
  EXPECT_NEAR(e1.Marginal(2), 1.0, 1e-12);
  EXPECT_NEAR(e1.Marginal(3), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(e1.Marginal(1), 0.0);
  // Partition 2 encoding <0, 1, 1, 0>.
  const NaiveEncoding& e2 = mix.Component(1).encoding;
  EXPECT_NEAR(e2.Marginal(1), 1.0, 1e-12);
  EXPECT_NEAR(e2.Marginal(2), 1.0, 1e-12);
  // "the Reproduction Error is zero for both of the two encodings."
  EXPECT_NEAR(mix.Error(), 0.0, 1e-12);
}

TEST(MixtureTest, WeightsAreQueryFractions) {
  QueryLog log = ToyLog();
  std::vector<int> assignment = {0, 0, 1};
  NaiveMixtureEncoding mix =
      NaiveMixtureEncoding::FromPartition(log, assignment, 2);
  EXPECT_NEAR(mix.Component(0).weight, 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(mix.Component(1).weight, 1.0 / 3.0, 1e-12);
}

TEST(MixtureTest, TotalVerbositySumsComponents) {
  QueryLog log = ToyLog();
  NaiveMixtureEncoding one =
      NaiveMixtureEncoding::FromPartition(log, {0, 0, 0}, 1);
  NaiveMixtureEncoding two =
      NaiveMixtureEncoding::FromPartition(log, {0, 0, 1}, 2);
  EXPECT_EQ(one.TotalVerbosity(), 4u);
  // Splitting duplicates shared features across partitions: 3 + 2.
  EXPECT_EQ(two.TotalVerbosity(), 5u);
}

TEST(MixtureTest, EstimateCountSumsPartitions) {
  QueryLog log = ToyLog();
  NaiveMixtureEncoding mix =
      NaiveMixtureEncoding::FromPartition(log, {0, 0, 1}, 2);
  // Pattern {2} (FROM messages) is in all 3 queries; both partitions
  // estimate it exactly.
  EXPECT_NEAR(mix.EstimateCount(FeatureVec({2})), 3.0, 1e-12);
  // Pattern {0,3}: partition 1 estimates 2 * 1 * 0.5 = 1, partition 2
  // estimates 0 => total 1 (true count is 1).
  EXPECT_NEAR(mix.EstimateCount(FeatureVec({0, 3})), 1.0, 1e-12);
}

TEST(MixtureTest, EmptyClustersDropped) {
  QueryLog log = ToyLog();
  NaiveMixtureEncoding mix =
      NaiveMixtureEncoding::FromPartition(log, {0, 0, 2}, 4);
  EXPECT_EQ(mix.NumComponents(), 2u);
}

TEST(PatternEncodingTest, VerbosityAndMarginals) {
  QueryLog log = ToyLog();
  PatternEncoding enc(log, {FeatureVec({0, 3}), FeatureVec({2})});
  EXPECT_EQ(enc.Verbosity(), 2u);
  EXPECT_NEAR(enc.marginals()[0], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(enc.marginals()[1], 1.0, 1e-12);
  EXPECT_NEAR(enc.EstimateMarginal(FeatureVec({2})), 1.0, 1e-6);
}

TEST(PatternEncodingTest, Lemma1AddingPatternsReducesError) {
  QueryLog log = ToyLog();
  PatternEncoding small(log, {FeatureVec({0})});
  PatternEncoding large(log, {FeatureVec({0}), FeatureVec({1}),
                              FeatureVec({3})});
  EXPECT_LE(large.ReproductionError(), small.ReproductionError() + 1e-9);
}

TEST(PatternEncodingTest, NaivePatternSetMatchesNaiveEncoding) {
  // A pattern encoding holding exactly the naive single-feature patterns
  // must reproduce the naive closed form (independence).
  QueryLog log = ToyLog();
  PatternEncoding p(log, {FeatureVec({0}), FeatureVec({1}), FeatureVec({2}),
                          FeatureVec({3})});
  NaiveEncoding naive = NaiveEncoding::FromLog(log);
  EXPECT_NEAR(p.MaxEntEntropy(), naive.MaxEntEntropy(), 1e-6);
}

TEST(RefineTest, CorrRankZeroForIndependentFeatures) {
  // Features 0 and 1 independent by construction.
  QueryLog log;
  log.Add(FeatureVec({0, 1}), 25);
  log.Add(FeatureVec({0}), 25);
  log.Add(FeatureVec({1}), 25);
  log.Add(FeatureVec(), 25);
  NaiveEncoding enc = NaiveEncoding::FromLog(log);
  EXPECT_NEAR(RankPatterns(log, enc, {FeatureVec({0, 1})})[0].corr_rank, 0.0,
              1e-9);
}

TEST(RefineTest, CorrRankPositiveForCorrelatedFeatures) {
  // Features always co-occur: true marginal 0.5, naive estimate 0.25.
  QueryLog log;
  log.Add(FeatureVec({0, 1}), 50);
  log.Add(FeatureVec(), 50);
  NaiveEncoding enc = NaiveEncoding::FromLog(log);
  double wc = FeatureCorrelation(log, enc, FeatureVec({0, 1}));
  EXPECT_NEAR(wc, std::log(0.5 / 0.25), 1e-9);
  EXPECT_NEAR(RankPatterns(log, enc, {FeatureVec({0, 1})})[0].corr_rank,
              0.5 * wc, 1e-9);
}

TEST(RefineTest, CorrRankNegativeForAntiCorrelated) {
  QueryLog log;
  log.Add(FeatureVec({0}), 50);
  log.Add(FeatureVec({1}), 50);
  log.Add(FeatureVec({0, 1}), 2);
  log.Add(FeatureVec(), 2);
  NaiveEncoding enc = NaiveEncoding::FromLog(log);
  EXPECT_LT(RankPatterns(log, enc, {FeatureVec({0, 1})})[0].corr_rank, 0.0);
}

TEST(RefineTest, RefinementReducesError) {
  // Strongly correlated pair: adding the pattern must reduce Error.
  QueryLog log;
  log.Add(FeatureVec({0, 1, 2}), 40);
  log.Add(FeatureVec({2}), 40);
  log.Add(FeatureVec({0, 2}), 5);
  NaiveEncoding naive = NaiveEncoding::FromLog(log);
  RefinedNaiveEncoding refined(log, {FeatureVec({0, 1})});
  EXPECT_EQ(refined.retained_patterns().size(), 1u);
  EXPECT_LT(refined.ReproductionError(), naive.ReproductionError());
  EXPECT_GE(refined.ReproductionError(), -1e-9);
  EXPECT_EQ(refined.Verbosity(), naive.Verbosity() + 1);
}

TEST(RefineTest, HigherCorrRankGivesLargerErrorReduction) {
  // Paper Sec. 7.1 (Fig. 4e/f): corr_rank tracks Error reduction.
  QueryLog log;
  log.Add(FeatureVec({0, 1, 4}), 40);   // 0,1 strongly correlated
  log.Add(FeatureVec({4}), 40);
  log.Add(FeatureVec({2, 4}), 20);      // 2,3 mildly correlated
  log.Add(FeatureVec({2, 3, 4}), 25);
  log.Add(FeatureVec({3, 4}), 20);
  NaiveEncoding naive = NaiveEncoding::FromLog(log);
  FeatureVec strong({0, 1}), weak({2, 3});
  double rank_strong = RankPatterns(log, naive, {strong})[0].corr_rank;
  double rank_weak = RankPatterns(log, naive, {weak})[0].corr_rank;
  ASSERT_GT(rank_strong, rank_weak);
  double drop_strong =
      naive.ReproductionError() -
      RefinedNaiveEncoding(log, {strong}).ReproductionError();
  double drop_weak =
      naive.ReproductionError() -
      RefinedNaiveEncoding(log, {weak}).ReproductionError();
  EXPECT_GT(drop_strong, drop_weak);
}

TEST(RefineTest, BlockCapDropsPatterns) {
  QueryLog log;
  log.Add(FeatureVec({0, 1, 2, 3, 4, 5}), 10);
  log.Add(FeatureVec({0, 2, 4}), 10);
  log.Add(FeatureVec({1, 3, 5}), 10);
  // A chain of patterns that would merge into one 6-feature block;
  // cap at 4 features forces dropping.
  RefinedNaiveEncoding refined(
      log, {FeatureVec({0, 1}), FeatureVec({1, 2}), FeatureVec({2, 3}),
            FeatureVec({3, 4}), FeatureVec({4, 5})},
      /*max_block_features=*/4);
  EXPECT_LT(refined.retained_patterns().size(), 5u);
}

TEST(ItemsetsTest, FindsKnownFrequentSets) {
  std::vector<FeatureVec> rows = {
      FeatureVec({0, 1, 2}), FeatureVec({0, 1}), FeatureVec({0, 1, 3}),
      FeatureVec({2, 3}),    FeatureVec({0, 1})};
  AprioriOptions opts;
  opts.min_support = 0.5;
  opts.min_size = 2;
  std::vector<FrequentItemset> sets = MineFrequentItemsets(rows, {}, opts);
  ASSERT_FALSE(sets.empty());
  EXPECT_EQ(sets[0].items, FeatureVec({0, 1}));
  EXPECT_NEAR(sets[0].support, 0.8, 1e-12);
}

TEST(ItemsetsTest, SupportMonotonicity) {
  Pcg32 rng(23);
  std::vector<FeatureVec> rows;
  for (int i = 0; i < 60; ++i) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 8; ++f) {
      if (rng.NextBernoulli(0.45)) ids.push_back(f);
    }
    rows.push_back(FeatureVec(std::move(ids)));
  }
  AprioriOptions opts;
  opts.min_support = 0.1;
  opts.max_size = 3;
  std::vector<FrequentItemset> sets = MineFrequentItemsets(rows, {}, opts);
  // Every subset of a frequent itemset has at least its support.
  for (const auto& fi : sets) {
    if (fi.items.size() < 2) continue;
    for (FeatureId drop : fi.items.ids) {
      std::vector<FeatureId> sub;
      for (FeatureId f : fi.items.ids) {
        if (f != drop) sub.push_back(f);
      }
      double sub_support = 0.0;
      for (const auto& row : rows) {
        if (row.ContainsAll(FeatureVec(sub))) sub_support += 1.0;
      }
      sub_support /= rows.size();
      EXPECT_GE(sub_support + 1e-9, fi.support);
    }
  }
}

TEST(ItemsetsTest, WeightsRespected) {
  std::vector<FeatureVec> rows = {FeatureVec({0, 1}), FeatureVec({2})};
  std::vector<double> w = {9.0, 1.0};
  AprioriOptions opts;
  opts.min_support = 0.5;
  opts.min_size = 2;
  std::vector<FrequentItemset> sets = MineFrequentItemsets(rows, w, opts);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_NEAR(sets[0].support, 0.9, 1e-12);
}

TEST(SynthesisTest, PerfectPartitionHasZeroSynthesisError) {
  QueryLog log = ToyLog();
  NaiveMixtureEncoding mix =
      NaiveMixtureEncoding::FromPartition(log, {0, 0, 1}, 2);
  SynthesisOptions opts;
  opts.samples_per_partition = 500;
  SynthesisStats stats = EvaluateSynthesis(log, mix, opts);
  // Partition 2 is a single query (always synthesizable); partition 1
  // has one free feature, both of whose settings exist in the log.
  EXPECT_NEAR(stats.synthesis_error, 0.0, 1e-12);
  // Estimates per partition are exact here.
  EXPECT_NEAR(stats.marginal_deviation, 0.0, 1e-9);
}

TEST(SynthesisTest, AntiCorrelationInflatesSynthesisError) {
  // One cluster with anti-correlated features: naive sampling generates
  // patterns (e.g. both features together) that never occur in the log.
  QueryLog log;
  log.Add(FeatureVec({0}), 50);
  log.Add(FeatureVec({1}), 50);
  NaiveMixtureEncoding mix =
      NaiveMixtureEncoding::FromPartition(log, {0, 0}, 1);
  SynthesisOptions opts;
  opts.samples_per_partition = 2000;
  SynthesisStats stats = EvaluateSynthesis(log, mix, opts);
  EXPECT_GT(stats.synthesis_error, 0.1);
}

TEST(SynthesisTest, CorrelationInflatesMarginalDeviation) {
  // Rare co-occurrence: the independence estimate badly over-counts the
  // full query q1 = {0,1}.
  QueryLog log;
  log.Add(FeatureVec({0, 1}), 10);
  log.Add(FeatureVec({0}), 45);
  log.Add(FeatureVec({1}), 45);
  NaiveMixtureEncoding mix =
      NaiveMixtureEncoding::FromPartition(log, {0, 0, 0}, 1);
  SynthesisOptions opts;
  opts.samples_per_partition = 500;
  SynthesisStats stats = EvaluateSynthesis(log, mix, opts);
  // est(q1) = 100 * 0.55^2 = 30.25 vs truth 10: rel deviation ~2 on 10%
  // of the mass.
  EXPECT_GT(stats.marginal_deviation, 0.1);
}

TEST(CompressorTest, ErrorDecreasesWithClusters) {
  Pcg32 rng(29);
  QueryLog log;
  // Three disjoint workload groups.
  for (int g = 0; g < 3; ++g) {
    for (int i = 0; i < 8; ++i) {
      std::vector<FeatureId> ids;
      for (int f = 0; f < 6; ++f) {
        if (rng.NextBernoulli(0.5)) {
          ids.push_back(static_cast<FeatureId>(g * 6 + f));
        }
      }
      ids.push_back(static_cast<FeatureId>(g * 6));
      log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(20));
    }
  }
  LogROptions opts;
  opts.method = ClusteringMethod::kKMeansEuclidean;
  double prev = 1e300;
  for (std::size_t k : {1u, 3u, 6u}) {
    opts.num_clusters = k;
    LogRSummary s = Compress(log, opts);
    EXPECT_LE(s.Model().Error(), prev + 0.3) << "k=" << k;
    prev = s.Model().Error();
  }
  // With k = #distinct, error must be ~0.
  opts.num_clusters = log.NumDistinct();
  LogRSummary full = Compress(log, opts);
  EXPECT_NEAR(full.Model().Error(), 0.0, 1e-9);
}

TEST(CompressorTest, AllMethodsProduceValidAssignments) {
  Pcg32 rng(31);
  QueryLog log;
  for (int i = 0; i < 20; ++i) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 10; ++f) {
      if (rng.NextBernoulli(0.4)) ids.push_back(f);
    }
    if (ids.empty()) ids.push_back(0);
    log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(5));
  }
  for (ClusteringMethod m :
       {ClusteringMethod::kKMeansEuclidean,
        ClusteringMethod::kSpectralManhattan,
        ClusteringMethod::kSpectralMinkowski,
        ClusteringMethod::kSpectralHamming,
        ClusteringMethod::kHierarchicalAverage}) {
    LogROptions opts;
    opts.method = m;
    opts.num_clusters = 4;
    LogRSummary s = Compress(log, opts);
    EXPECT_EQ(s.assignment.size(), log.NumDistinct());
    for (int a : s.assignment) {
      EXPECT_GE(a, 0);
      EXPECT_LT(a, 4);
    }
    EXPECT_GE(s.Model().Error(), -1e-9);
  }
}

}  // namespace
}  // namespace logr
