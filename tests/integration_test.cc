// End-to-end integration tests: generator -> SQL parsing funnel ->
// feature codebook -> clustering -> mixture encoding -> statistic
// estimation. Persistence is equivalence_test's reload and served legs.
#include <cmath>

#include "core/logr_compressor.h"
#include "core/synthesis.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "util/prng.h"

namespace logr {
namespace {

QueryLog SmallPocketLog() {
  PocketDataOptions gen;
  gen.num_distinct = 150;
  gen.total_queries = 60000;
  return LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
}

TEST(IntegrationTest, PipelineProducesDecreasingErrorInK) {
  QueryLog log = SmallPocketLog();
  double prev = 1e300;
  for (std::size_t k : {1u, 4u, 16u, 64u}) {
    LogROptions opts;
    opts.num_clusters = k;
    opts.seed = 3;
    LogRSummary s = Compress(log, opts);
    EXPECT_LE(s.Model().Error(), prev + 0.5) << "k=" << k;
    prev = s.Model().Error();
  }
}

TEST(IntegrationTest, MarginalEstimatesImproveWithClusters) {
  QueryLog log = SmallPocketLog();
  // Mean relative deviation of estimated vs true counts over the
  // distinct queries themselves (the Fig. 3b worst-case probe).
  auto probe = [&](std::size_t k) {
    LogROptions opts;
    opts.num_clusters = k;
    opts.seed = 7;
    LogRSummary s = Compress(log, opts);
    double acc = 0.0;
    for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
      double truth = static_cast<double>(
          log.CountContaining(log.Vector(i)));
      double est = s.Model().EstimateCount(log.Vector(i));
      acc += std::fabs(est - truth) / truth;
    }
    return acc / static_cast<double>(log.NumDistinct());
  };
  double coarse = probe(2);
  double fine = probe(40);
  EXPECT_LT(fine, coarse);
}

TEST(IntegrationTest, SingleFeatureCountsAreExactUnderAnyPartition) {
  // Naive encodings store single-feature marginals exactly, so
  // single-feature counts must be exact no matter the clustering.
  QueryLog log = SmallPocketLog();
  for (std::size_t k : {1u, 7u, 23u}) {
    LogROptions opts;
    opts.num_clusters = k;
    LogRSummary s = Compress(log, opts);
    Pcg32 rng(11);
    for (int probe = 0; probe < 25; ++probe) {
      FeatureId f = rng.NextBounded(
          static_cast<std::uint32_t>(log.NumFeatures()));
      FeatureVec pattern({f});
      double truth =
          static_cast<double>(log.CountContaining(pattern));
      EXPECT_NEAR(s.Model().EstimateCount(pattern), truth,
                  1e-6 * std::max(1.0, truth))
          << "k=" << k << " feature=" << f;
    }
  }
}

TEST(IntegrationTest, AdaptiveNeverWorseThanSingleCluster) {
  QueryLog log = SmallPocketLog();
  LogROptions opts;
  opts.seed = 13;
  opts.encoder = "naive";  // the <= guarantee is a naive-error property
  double base = Compress(log, [&] {
                  LogROptions o = opts;
                  o.num_clusters = 1;
                  return o;
                }()).Model().Error();
  opts.num_clusters = 16;
  LogRSummary adaptive = CompressAdaptive(log, opts);
  EXPECT_LE(adaptive.Model().Error(), base + 1e-9);
  EXPECT_LE(adaptive.Model().NumComponents(), 16u);
}

TEST(IntegrationTest, AdaptiveMatchesOrBeatsFlatKMeansOnMixtures) {
  // On a workload with clear sub-structure the adaptive splitter should
  // be competitive with flat k-means at equal K.
  QueryLog log = SmallPocketLog();
  LogROptions opts;
  opts.seed = 17;
  opts.num_clusters = 12;
  opts.encoder = "naive";  // compare naive errors at equal K
  double flat = Compress(log, opts).Model().Error();
  double adaptive = CompressAdaptive(log, opts).Model().Error();
  EXPECT_LT(adaptive, flat * 1.25);
}

TEST(IntegrationTest, AdaptiveStopsAtZeroError) {
  // A log of identical queries is already error-free: no splits happen.
  QueryLog log;
  log.Add(FeatureVec({0, 1, 2}), 100);
  log.Add(FeatureVec({0, 1, 2}), 50);
  LogROptions opts;
  opts.num_clusters = 8;
  LogRSummary s = CompressAdaptive(log, opts);
  EXPECT_EQ(s.Model().NumComponents(), 1u);
  EXPECT_NEAR(s.Model().Error(), 0.0, 1e-12);
}

TEST(IntegrationTest, BankFunnelSurvivesNoise) {
  BankLogOptions gen;
  gen.num_templates = 120;
  gen.total_queries = 50000;
  gen.noise_entries = 60;
  LogLoader loader = LoadEntries(GenerateBankLog(gen));
  DatasetSummary stats = loader.Summary("bank");
  EXPECT_GT(stats.num_non_select, 0u);
  EXPECT_GT(stats.num_parse_errors, 0u);
  QueryLog log = loader.TakeLog();
  LogROptions opts;
  opts.num_clusters = 6;
  LogRSummary s = Compress(log, opts);
  EXPECT_GT(s.Model().TotalVerbosity(), 0u);
  EXPECT_GE(s.Model().Error(), 0.0);
}

TEST(IntegrationTest, SynthesisImprovesWithError) {
  QueryLog log = SmallPocketLog();
  SynthesisOptions so;
  so.samples_per_partition = 300;
  LogROptions opts;
  opts.num_clusters = 2;
  LogRSummary coarse = Compress(log, opts);
  opts.num_clusters = 40;
  LogRSummary fine = Compress(log, opts);
  SynthesisStats coarse_stats =
      EvaluateSynthesis(log, *coarse.Model().AsNaiveMixture(), so);
  SynthesisStats fine_stats =
      EvaluateSynthesis(log, *fine.Model().AsNaiveMixture(), so);
  EXPECT_LE(fine_stats.synthesis_error, coarse_stats.synthesis_error + 0.05);
  EXPECT_LE(fine_stats.marginal_deviation,
            coarse_stats.marginal_deviation + 0.05);
}

}  // namespace
}  // namespace logr
