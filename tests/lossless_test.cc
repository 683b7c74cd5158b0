// Tests for Proposition 1 (paper Appendix B): the full marginal mapping
// E_max determines the exact query distribution.
#include <cmath>

#include "core/naive_encoding.h"
#include "gtest/gtest.h"
#include "oracles/lossless.h"
#include "util/prng.h"

namespace logr {
namespace {

FeatureVec Universe(std::size_t n) {
  std::vector<FeatureId> ids(n);
  for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<FeatureId>(i);
  return FeatureVec(std::move(ids));
}

TEST(LosslessTest, Proposition1OnToyLog) {
  // The Section 5.1 toy log: reconstruction over the full universe must
  // return each query's empirical probability and zero elsewhere.
  QueryLog log;
  log.Add(FeatureVec({0, 2, 3}), 1);
  log.Add(FeatureVec({0, 2}), 1);
  log.Add(FeatureVec({1, 2}), 1);
  FeatureVec universe = Universe(4);

  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec({0, 2, 3}), universe),
              1.0 / 3.0, 1e-12);
  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec({0, 2}), universe),
              1.0 / 3.0, 1e-12);
  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec({1, 2}), universe),
              1.0 / 3.0, 1e-12);
  // The never-seen "SELECT sms_type ... WHERE status = ?" of Example 4.
  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec({1, 2, 3}), universe),
              0.0, 1e-12);
  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec(), universe), 0.0,
              1e-12);
}

TEST(LosslessTest, ReconstructionSumsToOne) {
  QueryLog log;
  log.Add(FeatureVec({0, 1}), 3);
  log.Add(FeatureVec({2}), 2);
  log.Add(FeatureVec({0, 2}), 5);
  FeatureVec universe = Universe(3);
  double total = 0.0;
  for (std::uint32_t mask = 0; mask < 8; ++mask) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 3; ++f) {
      if (mask & (1u << f)) ids.push_back(f);
    }
    total += ExactProbabilityFromLog(log, FeatureVec(std::move(ids)),
                                     universe);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(LosslessTest, MatchesEmpiricalOnRandomLogs) {
  Pcg32 rng(17);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 6;
    QueryLog log;
    for (int i = 0; i < 40; ++i) {
      std::vector<FeatureId> ids;
      for (FeatureId f = 0; f < n; ++f) {
        if (rng.NextBernoulli(0.4)) ids.push_back(f);
      }
      log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(5));
    }
    FeatureVec universe = Universe(n);
    // Probe every distinct vector plus a few random ones.
    for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
      double expected = log.Probability(i);
      // Merge duplicates: empirical probability of the exact vector.
      double reconstructed =
          ExactProbabilityFromLog(log, log.Vector(i), universe);
      EXPECT_NEAR(reconstructed, expected, 1e-9);
    }
  }
}

TEST(LosslessTest, PartialUniverseMarginalizes) {
  // Restricting the universe marginalizes the hidden features: the
  // reconstruction over {0,1} of q = {0} counts every query containing
  // feature 0 but not feature 1, regardless of feature 2.
  QueryLog log;
  log.Add(FeatureVec({0}), 1);
  log.Add(FeatureVec({0, 2}), 1);
  log.Add(FeatureVec({0, 1}), 1);
  log.Add(FeatureVec({1}), 1);
  FeatureVec universe({0, 1});
  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec({0}), universe), 0.5,
              1e-12);
  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec({0, 1}), universe),
              0.25, 1e-12);
  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec({1}), universe), 0.25,
              1e-12);
  // Every logged query contains feature 0 or feature 1.
  EXPECT_NEAR(ExactProbabilityFromLog(log, FeatureVec(), universe), 0.0,
              1e-12);
}

TEST(LosslessTest, NaiveEncodingMarginalsReconstructIndependentModel) {
  // Feeding the naive encoding's *estimates* (instead of true marginals)
  // through Proposition 1 reconstructs the independence distribution —
  // connecting the lossless machinery to Example 4's closed form.
  QueryLog log;
  log.Add(FeatureVec({0, 2, 3}), 1);
  log.Add(FeatureVec({0, 2}), 1);
  log.Add(FeatureVec({1, 2}), 1);
  NaiveEncoding enc = NaiveEncoding::FromLog(log);
  FeatureVec universe = Universe(4);
  auto estimate = [&enc](const FeatureVec& b) {
    return enc.EstimateMarginal(b);
  };
  double p_q1 = ExactProbabilityFromMarginals(estimate,
                                              FeatureVec({0, 2, 3}),
                                              universe);
  EXPECT_NEAR(p_q1, 4.0 / 27.0, 1e-12);  // Example 4
  double p_unseen = ExactProbabilityFromMarginals(estimate,
                                                  FeatureVec({1, 2, 3}),
                                                  universe);
  EXPECT_NEAR(p_unseen, 1.0 / 27.0, 1e-12);  // Example 4
}

}  // namespace
}  // namespace logr
