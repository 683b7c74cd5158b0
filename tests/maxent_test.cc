#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/encoder.h"
#include "core/logr_compressor.h"
#include "core/naive_encoding.h"
#include "core/pattern_model.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "maxent/deviation.h"
#include "maxent/entropy.h"
#include "maxent/factored_model.h"
#include "maxent/omega_sampler.h"
#include "maxent/projected_log.h"
#include "maxent/scaling.h"
#include "maxent/signature_space.h"
#include "util/prng.h"
#include "workload/log_view.h"

namespace logr {
namespace {

TEST(EntropyTest, KnownValues) {
  EXPECT_NEAR(Entropy({0.5, 0.5}), std::log(2.0), 1e-12);
  EXPECT_NEAR(Entropy({1.0}), 0.0, 1e-12);
  EXPECT_NEAR(Entropy({0.25, 0.25, 0.25, 0.25}), std::log(4.0), 1e-12);
}

TEST(EntropyTest, BinaryEntropySymmetricAndBounded) {
  EXPECT_DOUBLE_EQ(BinaryEntropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(BinaryEntropy(1.0), 0.0);
  EXPECT_NEAR(BinaryEntropy(0.5), std::log(2.0), 1e-12);
  EXPECT_NEAR(BinaryEntropy(0.3), BinaryEntropy(0.7), 1e-12);
}

TEST(SignatureSpaceTest, NoPatternsSingleClass) {
  SignatureSpace space({}, 4);
  EXPECT_EQ(space.num_classes(), 1u);
  EXPECT_DOUBLE_EQ(space.ClassFraction(0), 1.0);
  EXPECT_NEAR(space.LogClassSize(0), 4 * std::log(2.0), 1e-12);
}

TEST(SignatureSpaceTest, SinglePatternSplitsSpace) {
  // Pattern {0,1} over 3 features: 2 of 8 vectors contain it.
  SignatureSpace space({FeatureVec({0, 1})}, 3);
  EXPECT_EQ(space.num_classes(), 2u);
  EXPECT_NEAR(space.ClassFraction(1), 0.25, 1e-12);
  EXPECT_NEAR(space.ClassFraction(0), 0.75, 1e-12);
}

TEST(SignatureSpaceTest, FractionsSumToOne) {
  std::vector<FeatureVec> patterns = {FeatureVec({0, 1}), FeatureVec({1, 2}),
                                      FeatureVec({3})};
  SignatureSpace space(patterns, 6);
  double total = 0.0;
  for (std::uint32_t s = 0; s < space.num_classes(); ++s) {
    total += space.ClassFraction(s);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(SignatureSpaceTest, MatchesBruteForceEnumeration) {
  // n = 10 features, 3 overlapping patterns: compare against explicit
  // enumeration of all 1024 vectors.
  std::vector<FeatureVec> patterns = {FeatureVec({0, 1}), FeatureVec({1, 2, 3}),
                                      FeatureVec({4})};
  const std::size_t n = 10;
  SignatureSpace space(patterns, n);
  std::vector<double> count(space.num_classes(), 0.0);
  for (std::uint32_t v = 0; v < (1u << n); ++v) {
    std::vector<FeatureId> ids;
    for (std::size_t f = 0; f < n; ++f) {
      if (v & (1u << f)) ids.push_back(static_cast<FeatureId>(f));
    }
    count[space.SignatureOf(FeatureVec(std::move(ids)))] += 1.0;
  }
  for (std::uint32_t s = 0; s < space.num_classes(); ++s) {
    EXPECT_NEAR(space.ClassFraction(s), count[s] / 1024.0, 1e-9)
        << "class " << s;
  }
}

TEST(SignatureSpaceTest, SignatureOfRespectsContainment) {
  std::vector<FeatureVec> patterns = {FeatureVec({0}), FeatureVec({0, 1})};
  SignatureSpace space(patterns, 3);
  EXPECT_EQ(space.SignatureOf(FeatureVec({0})), 1u);
  EXPECT_EQ(space.SignatureOf(FeatureVec({0, 1})), 3u);
  EXPECT_EQ(space.SignatureOf(FeatureVec({2})), 0u);
}

TEST(SignatureSpaceTest, ClassFractionsContainingBruteForce) {
  std::vector<FeatureVec> patterns = {FeatureVec({0, 1}), FeatureVec({2})};
  const std::size_t n = 8;
  SignatureSpace space(patterns, n);
  FeatureVec b({1, 2});
  std::vector<double> got = space.ClassFractionsContaining(b);
  std::vector<double> expected(space.num_classes(), 0.0);
  for (std::uint32_t v = 0; v < (1u << n); ++v) {
    std::vector<FeatureId> ids;
    for (std::size_t f = 0; f < n; ++f) {
      if (v & (1u << f)) ids.push_back(static_cast<FeatureId>(f));
    }
    FeatureVec q(std::move(ids));
    if (q.ContainsAll(b)) expected[space.SignatureOf(q)] += 1.0 / 256.0;
  }
  for (std::uint32_t s = 0; s < space.num_classes(); ++s) {
    EXPECT_NEAR(got[s], expected[s], 1e-9);
  }
}

// The sorted-vector union loop SignatureSpace ran before its bitmask
// kernel, kept here as the oracle: atleast[S] from one chain of
// FeatureVec::Union calls per class, then the same Möbius pass and
// clamp. The kernel must reproduce it bit for bit.
std::vector<double> UnionLoopFractions(const std::vector<FeatureVec>& patterns,
                                       const FeatureVec& extra) {
  const std::size_t m = patterns.size();
  const std::size_t classes = std::size_t(1) << m;
  std::vector<double> value(classes);
  for (std::size_t s = 0; s < classes; ++s) {
    FeatureVec u = extra;
    for (std::size_t j = 0; j < m; ++j) {
      if (s & (std::size_t(1) << j)) u = FeatureVec::Union(u, patterns[j]);
    }
    value[s] = std::exp2(-static_cast<double>(u.size()));
  }
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t bit = std::size_t(1) << j;
    for (std::size_t s = 0; s < classes; ++s) {
      if (!(s & bit)) value[s] -= value[s | bit];
    }
  }
  for (double& v : value) {
    if (v < 0.0 && v > -1e-12) v = 0.0;
    if (v < 0.0) v = 0.0;
  }
  return value;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

std::vector<double> ClassFractions(const SignatureSpace& space) {
  std::vector<double> out(space.num_classes());
  for (std::uint32_t s = 0; s < out.size(); ++s) {
    out[s] = space.ClassFraction(s);
  }
  return out;
}

/// m random patterns whose union is exactly `support_size` ids drawn
/// from a universe twice as wide (plus 64), so ids outside the support
/// sit both between and above support ids. Every support id lands in
/// some pattern; later patterns may nest an earlier one, copy it, or
/// pick up extra support ids that overlap others.
struct FuzzLattice {
  std::vector<FeatureVec> patterns;
  std::vector<FeatureId> support;
  std::vector<FeatureId> outside;
  std::size_t n_features = 0;
};

FuzzLattice MakeFuzzLattice(std::size_t m, std::size_t support_size,
                            Pcg32* rng) {
  FuzzLattice lat;
  lat.n_features = 2 * support_size + 64;
  std::vector<FeatureId> ids(lat.n_features);
  for (std::size_t f = 0; f < ids.size(); ++f) {
    ids[f] = static_cast<FeatureId>(f);
  }
  rng->Shuffle(&ids);
  if (m == 0) support_size = 0;
  lat.support.assign(ids.begin(), ids.begin() + support_size);
  lat.outside.assign(ids.begin() + support_size, ids.end());
  std::sort(lat.support.begin(), lat.support.end());
  std::sort(lat.outside.begin(), lat.outside.end());
  std::vector<std::vector<FeatureId>> raw(m);
  for (FeatureId f : lat.support) {
    raw[rng->NextBounded(static_cast<std::uint32_t>(m))].push_back(f);
  }
  for (std::size_t j = 1; j < m; ++j) {
    const std::vector<FeatureId>& earlier =
        raw[rng->NextBounded(static_cast<std::uint32_t>(j))];
    switch (rng->NextBounded(4)) {
      case 0:  // nests an earlier pattern
        raw[j].insert(raw[j].end(), earlier.begin(), earlier.end());
        break;
      case 1:  // duplicates it
        raw[j] = earlier;
        break;
      case 2:  // overlaps the rest of the support
        for (int k = 0; k < 8; ++k) {
          raw[j].push_back(lat.support[rng->NextBounded(
              static_cast<std::uint32_t>(support_size))]);
        }
        break;
      default:
        break;
    }
  }
  for (std::vector<FeatureId>& r : raw) {
    lat.patterns.push_back(FeatureVec(std::move(r)));
  }
  return lat;
}

/// The `b` shapes a lattice walk must handle: empty, wholly outside the
/// support, the whole support, and a mix of inside and outside ids.
std::vector<FeatureVec> FuzzExtras(const FuzzLattice& lat, Pcg32* rng) {
  std::vector<FeatureVec> extras = {FeatureVec()};
  std::vector<FeatureId> outside;
  for (int k = 0; k < 5; ++k) {
    outside.push_back(lat.outside[rng->NextBounded(
        static_cast<std::uint32_t>(lat.outside.size()))]);
  }
  extras.push_back(FeatureVec(outside));
  extras.push_back(FeatureVec(lat.support));
  std::vector<FeatureId> mixed = outside;
  for (std::size_t k = 0; k < lat.support.size(); k += 3) {
    mixed.push_back(lat.support[k]);
  }
  extras.push_back(FeatureVec(std::move(mixed)));
  return extras;
}

TEST(SignatureSpaceTest, BitmaskKernelMatchesUnionLoopOracle) {
  // Supports of <= 64, 65-128 and > 128 ids span 1, 2 and 3+ mask words.
  const std::size_t kSupportBands[][2] = {{1, 64}, {65, 128}, {129, 300}};
  Pcg32 rng(2018);
  std::size_t lattices = 0;
  for (std::size_t m = 0; m <= 12; ++m) {
    for (const auto& band : kSupportBands) {
      for (int rep = 0; rep < 2; ++rep) {
        const std::size_t support_size =
            band[0] + rng.NextBounded(
                          static_cast<std::uint32_t>(band[1] - band[0] + 1));
        const FuzzLattice lat = MakeFuzzLattice(m, support_size, &rng);
        SignatureSpace space(lat.patterns, lat.n_features);
        ASSERT_TRUE(BitEqual(ClassFractions(space),
                             UnionLoopFractions(lat.patterns, FeatureVec())))
            << "m=" << m << " support=" << lat.support.size();
        for (const FeatureVec& b : FuzzExtras(lat, &rng)) {
          ASSERT_TRUE(BitEqual(space.ClassFractionsContaining(b),
                               UnionLoopFractions(lat.patterns, b)))
              << "m=" << m << " support=" << lat.support.size()
              << " |b|=" << b.size();
          ++lattices;
        }
      }
    }
  }
  EXPECT_EQ(lattices, 13u * 3u * 2u * 4u);
}

TEST(SignatureSpaceTest, EmptySupportWalksZeroMaskWords) {
  // m = 0, and m > 0 with every pattern empty: the support is empty, so
  // the masks have zero words and only `b`'s outside count matters.
  for (const std::vector<FeatureVec>& patterns :
       {std::vector<FeatureVec>{},
        std::vector<FeatureVec>{FeatureVec(), FeatureVec()}}) {
    SignatureSpace space(patterns, 6);
    EXPECT_TRUE(BitEqual(ClassFractions(space),
                         UnionLoopFractions(patterns, FeatureVec())));
    for (const FeatureVec& b : {FeatureVec(), FeatureVec({1, 3, 5})}) {
      EXPECT_TRUE(BitEqual(space.ClassFractionsContaining(b),
                           UnionLoopFractions(patterns, b)))
          << "m=" << patterns.size() << " |b|=" << b.size();
    }
  }
}

TEST(SignatureSpaceTest, WidePatternsUnderflowLikeTheOracle) {
  // Unions past 1,074 ids drive 2^{-|U|} to zero; the kernel must reach
  // the same zeros (and the same last nonzero subnormals) as libm.
  std::vector<FeatureId> wide;
  for (FeatureId f = 0; f < 1070; ++f) wide.push_back(f);
  std::vector<FeatureVec> patterns = {FeatureVec(wide), FeatureVec({1070}),
                                      FeatureVec({1071, 1072, 1073, 1074}),
                                      FeatureVec({1075, 1076})};
  SignatureSpace space(patterns, 1100);
  EXPECT_TRUE(BitEqual(ClassFractions(space),
                       UnionLoopFractions(patterns, FeatureVec())));
  for (const FeatureVec& b :
       {FeatureVec({1080}), FeatureVec({1080, 1081, 1082, 1090})}) {
    EXPECT_TRUE(BitEqual(space.ClassFractionsContaining(b),
                         UnionLoopFractions(patterns, b)));
  }
}

TEST(MaxEntModelTest, NoConstraintsIsUniform) {
  SignatureSpace space({}, 5);
  MaxEntModel model(&space, {});
  EXPECT_NEAR(model.EntropyNats(), 5 * std::log(2.0), 1e-9);
}

TEST(MaxEntModelTest, SingleFeatureConstraintClosedForm) {
  // One pattern = single feature with marginal p: the max-ent entropy is
  // h(p) + (n-1) ln 2.
  const double p = 0.3;
  SignatureSpace space({FeatureVec({0})}, 4);
  MaxEntModel model(&space, {p});
  EXPECT_TRUE(model.converged());
  EXPECT_NEAR(model.EntropyNats(), BinaryEntropy(p) + 3 * std::log(2.0),
              1e-6);
}

TEST(MaxEntModelTest, IndependentFeaturesFactorize) {
  // Two disjoint single-feature patterns: H = h(p0) + h(p1) + (n-2) ln 2.
  SignatureSpace space({FeatureVec({0}), FeatureVec({1})}, 3);
  MaxEntModel model(&space, {0.2, 0.7});
  EXPECT_NEAR(model.EntropyNats(),
              BinaryEntropy(0.2) + BinaryEntropy(0.7) + std::log(2.0), 1e-6);
}

TEST(MaxEntModelTest, MarginalsAreReproduced) {
  std::vector<FeatureVec> patterns = {FeatureVec({0, 1}), FeatureVec({1, 2})};
  SignatureSpace space(patterns, 5);
  MaxEntModel model(&space, {0.3, 0.15});
  EXPECT_LT(model.MaxResidual(), 1e-7);
  EXPECT_NEAR(model.MarginalOf(FeatureVec({0, 1})), 0.3, 1e-6);
  EXPECT_NEAR(model.MarginalOf(FeatureVec({1, 2})), 0.15, 1e-6);
}

TEST(MaxEntModelTest, MarginalOfUnconstrainedFeatureIsHalf) {
  SignatureSpace space({FeatureVec({0})}, 3);
  MaxEntModel model(&space, {0.8});
  // Feature 2 is untouched by any constraint: marginal 1/2 under max-ent.
  EXPECT_NEAR(model.MarginalOf(FeatureVec({2})), 0.5, 1e-6);
}

// Lemma 1: adding constraints never increases max-ent entropy.
TEST(MaxEntModelTest, Lemma1MoreConstraintsLowerEntropy) {
  Pcg32 rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 6;
    // Random log of 20 vectors to give consistent marginals.
    std::vector<FeatureVec> vecs;
    std::vector<double> probs(20, 0.05);
    for (int i = 0; i < 20; ++i) {
      std::vector<FeatureId> ids;
      for (std::size_t f = 0; f < n; ++f) {
        if (rng.NextBernoulli(0.4)) ids.push_back(static_cast<FeatureId>(f));
      }
      vecs.push_back(FeatureVec(std::move(ids)));
    }
    ProjectedLog log(vecs, probs, n);
    std::vector<FeatureVec> p1 = {FeatureVec({0, 1})};
    std::vector<FeatureVec> p2 = {FeatureVec({0, 1}), FeatureVec({2, 3})};
    ProjectedEncoding e1 = ProjectedEncoding::Measure(log, p1);
    ProjectedEncoding e2 = ProjectedEncoding::Measure(log, p2);
    SignatureSpace s1(e1.patterns, n), s2(e2.patterns, n);
    MaxEntModel m1(&s1, e1.marginals), m2(&s2, e2.marginals);
    EXPECT_LE(m2.EntropyNats(), m1.EntropyNats() + 1e-9);
  }
}

TEST(ProjectedLogTest, ProjectionMergesVectors) {
  QueryLog log;
  log.Add(FeatureVec({0, 1, 5}), 2);
  log.Add(FeatureVec({0, 1, 6}), 3);
  log.Add(FeatureVec({2}), 5);
  // Keep features {0, 1, 2}: first two vectors merge.
  ProjectedLog proj(log, {0, 1, 2});
  EXPECT_EQ(proj.num_features(), 3u);
  EXPECT_EQ(proj.num_distinct(), 2u);
  EXPECT_NEAR(proj.Marginal(FeatureVec({0, 1})), 0.5, 1e-12);
}

TEST(ProjectedLogTest, FeatureBandSelection) {
  QueryLog log;
  log.Add(FeatureVec({0, 1}), 99);
  log.Add(FeatureVec({0, 2}), 1);
  // Feature 0 has marginal 1.0 (excluded), 1 has 0.99, 2 has 0.01.
  std::vector<FeatureId> band =
      ProjectedLog::SelectFeaturesInBand(log, 0.01, 0.99);
  EXPECT_EQ(band, (std::vector<FeatureId>{1, 2}));
}

TEST(OmegaSamplerTest, SamplesSatisfyConstraints) {
  std::vector<FeatureVec> patterns = {FeatureVec({0}), FeatureVec({1, 2})};
  SignatureSpace space(patterns, 4);
  std::vector<double> marginals = {0.4, 0.2};
  OmegaSampler sampler(&space, marginals);
  Pcg32 rng(11);
  for (int s = 0; s < 20; ++s) {
    std::vector<double> rho = sampler.Sample(&rng);
    double total = 0.0, m0 = 0.0, m1 = 0.0;
    for (std::size_t cls = 0; cls < rho.size(); ++cls) {
      EXPECT_GE(rho[cls], 0.0);
      total += rho[cls];
      if (cls & 1u) m0 += rho[cls];
      if (cls & 2u) m1 += rho[cls];
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_NEAR(m0, 0.4, 0.03);
    EXPECT_NEAR(m1, 0.2, 0.03);
  }
}

TEST(OmegaSamplerTest, SamplesVary) {
  // Two patterns over n=3 leave the feasible polytope with positive
  // dimension, so distinct samples should differ.
  std::vector<FeatureVec> patterns = {FeatureVec({0}), FeatureVec({1})};
  SignatureSpace space(patterns, 3);
  OmegaSampler sampler(&space, {0.5, 0.4});
  Pcg32 rng(13);
  std::vector<double> a = sampler.Sample(&rng);
  std::vector<double> b = sampler.Sample(&rng);
  EXPECT_NE(a, b);
}

TEST(OmegaSamplerTest, FullyConstrainedSpaceIsDeterministic) {
  // One pattern over its own 2-class lattice pins both class masses:
  // every sample must coincide.
  SignatureSpace space({FeatureVec({0})}, 3);
  OmegaSampler sampler(&space, {0.5});
  Pcg32 rng(13);
  std::vector<double> a = sampler.Sample(&rng);
  std::vector<double> b = sampler.Sample(&rng);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-9);
  }
}

TEST(DeviationTest, ExactEncodingHasLowDeviation) {
  // A log over 2 features where the encoding pins everything down.
  std::vector<FeatureVec> vecs = {FeatureVec({0}), FeatureVec({1})};
  std::vector<double> probs = {0.5, 0.5};
  ProjectedLog log(vecs, probs, 2);
  // Rich encoding: both singletons and the pair.
  ProjectedEncoding rich = ProjectedEncoding::Measure(
      log, {FeatureVec({0}), FeatureVec({1}), FeatureVec({0, 1})});
  ProjectedEncoding poor = ProjectedEncoding::Measure(log, {FeatureVec({0})});
  DeviationResult d_rich = EstimateDeviation(log, rich, 200, 5);
  DeviationResult d_poor = EstimateDeviation(log, poor, 200, 5);
  EXPECT_LT(d_rich.mean, d_poor.mean);
}

TEST(DeviationTest, ReproductionErrorNonNegativeAndOrdered) {
  Pcg32 rng(91);
  std::vector<FeatureVec> vecs;
  std::vector<double> probs;
  for (int i = 0; i < 12; ++i) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 5; ++f) {
      if (rng.NextBernoulli(0.5)) ids.push_back(f);
    }
    vecs.push_back(FeatureVec(std::move(ids)));
    probs.push_back(1.0);
  }
  ProjectedLog log(vecs, probs, 5);
  ProjectedEncoding small = ProjectedEncoding::Measure(log, {FeatureVec({0})});
  ProjectedEncoding large = ProjectedEncoding::Measure(
      log, {FeatureVec({0}), FeatureVec({1, 2})});
  double e_small = ReproductionError(log, small);
  double e_large = ReproductionError(log, large);
  EXPECT_GE(e_small, -1e-9);
  EXPECT_GE(e_large, -1e-9);
  EXPECT_LE(e_large, e_small + 1e-9);  // Lemma 1 direction
}

TEST(AmbiguityTest, DimensionShrinksWithMoreConstraints) {
  ProjectedEncoding e1;
  e1.patterns = {FeatureVec({0})};
  e1.marginals = {0.5};
  ProjectedEncoding e2;
  e2.patterns = {FeatureVec({0}), FeatureVec({1})};
  e2.marginals = {0.5, 0.5};
  // Lemma 2 proxy: the feasible polytope can only lose dimensions as
  // constraints are added.
  EXPECT_GE(AmbiguityDimension(e1, 4), AmbiguityDimension(e2, 4));
}

// ----------------------------------------- served pattern estimates

/// Model marginal of `b` under one fitted component: the sum of
/// MaxEntModel::MarginalOf repeated term for term over the union-loop
/// oracle's fractions (`frac` is the oracle's walk with no `b`).
double OracleMarginal(const PatternEncoding& enc,
                      const std::vector<double>& frac, const FeatureVec& b) {
  const std::vector<double> with_b = UnionLoopFractions(enc.patterns(), b);
  const std::vector<double>& prob = enc.model().class_probabilities();
  double acc = 0.0;
  for (std::size_t s = 0; s < prob.size(); ++s) {
    if (frac[s] <= 0.0 || prob[s] <= 0.0) continue;
    acc += prob[s] * (with_b[s] / frac[s]);
  }
  return acc;
}

/// A PocketData "pattern" summary, by default at K = 8, the served shape.
LogRSummary PocketPatternSummary(std::uint64_t seed, std::size_t budget,
                                 QueryLog* log, std::size_t clusters = 8) {
  PocketDataOptions gen;
  gen.seed = seed;
  *log = LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
  LogROptions opts;
  opts.num_clusters = clusters;
  opts.n_init = 1;
  opts.encoder = "pattern";
  opts.pattern_budget = budget;
  return Compress(*log, opts);
}

/// The empty predicate, 32 template-derived conjunctions (1-3 features
/// of a template picked at a fixed stride) and 16 single features spread
/// over the universe.
std::vector<FeatureVec> EstimateBattery(const QueryLog& log) {
  std::vector<FeatureVec> battery = {FeatureVec()};
  for (std::size_t k = 0; k < 32; ++k) {
    const FeatureVec& v = log.Vector((k * 7919) % log.NumDistinct());
    if (v.empty()) continue;
    std::vector<FeatureId> ids;
    for (std::size_t j = 0; j < std::min<std::size_t>(1 + k % 3, v.size());
         ++j) {
      ids.push_back(v.ids[(k + j) % v.size()]);
    }
    battery.push_back(FeatureVec(std::move(ids)));
  }
  const std::size_t stride = std::max<std::size_t>(1, log.NumFeatures() / 16);
  for (std::size_t f = 0; f < log.NumFeatures(); f += stride) {
    battery.push_back(FeatureVec({static_cast<FeatureId>(f)}));
  }
  return battery;
}

struct PocketCase {
  std::uint64_t seed;
  std::size_t budget;
};

class PatternEstimateOracleTest : public ::testing::TestWithParam<PocketCase> {
};

TEST_P(PatternEstimateOracleTest, EstimatesMatchUnionLoopBitwise) {
  QueryLog log;
  const LogRSummary summary =
      PocketPatternSummary(GetParam().seed, GetParam().budget, &log);
  const PatternMixtureModel* model = summary.Model().AsPatternMixture();
  ASSERT_NE(model, nullptr);
  const std::size_t k = model->NumComponents();
  std::size_t widest = 0;
  std::vector<std::vector<double>> fractions;
  for (std::size_t i = 0; i < k; ++i) {
    const PatternEncoding& enc = model->ComponentEncoding(i);
    widest = std::max(widest, enc.Verbosity());
    fractions.push_back(UnionLoopFractions(enc.patterns(), FeatureVec()));
    SignatureSpace space(enc.patterns(), enc.NumFeatures());
    ASSERT_TRUE(BitEqual(ClassFractions(space), fractions[i]))
        << "component " << i;
  }
  EXPECT_EQ(widest, GetParam().budget);

  for (const FeatureVec& b : EstimateBattery(log)) {
    double marginal = 0.0;
    double count = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      const PatternEncoding& enc = model->ComponentEncoding(i);
      const double m_i = OracleMarginal(enc, fractions[i], b);
      if (model->ComponentWeight(i) > 0.0) {
        marginal += model->ComponentWeight(i) * m_i;
      }
      count += static_cast<double>(enc.LogSize()) * m_i;
      if (b.size() == 1) {
        const double got = model->ComponentMarginal(i, b.ids[0]);
        ASSERT_EQ(std::memcmp(&got, &m_i, sizeof(double)), 0)
            << "component " << i << " feature " << b.ids[0];
      }
    }
    const double got_marginal = model->EstimateMarginal(b);
    const double got_count = model->EstimateCount(b);
    ASSERT_EQ(std::memcmp(&got_marginal, &marginal, sizeof(double)), 0)
        << "|b|=" << b.size();
    ASSERT_EQ(std::memcmp(&got_count, &count, sizeof(double)), 0)
        << "|b|=" << b.size();
  }
}

INSTANTIATE_TEST_SUITE_P(
    PocketData, PatternEstimateOracleTest,
    ::testing::Values(PocketCase{3, 8}, PocketCase{3, 12}, PocketCase{4, 8},
                      PocketCase{4, 12}),
    [](const ::testing::TestParamInfo<PocketCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_budget" +
             std::to_string(info.param.budget);
    });

TEST(PatternEstimateConcurrencyTest, SharedModelAnswersMatchSerial) {
  // Serve threads estimate against one model at once; the lattice walk
  // keeps its buffers per call, so every concurrent answer must carry
  // the serial answer's bits.
  QueryLog log;
  const LogRSummary summary = PocketPatternSummary(3, 8, &log);
  const WorkloadModel& model = summary.Model();
  const std::vector<FeatureVec> battery = EstimateBattery(log);
  auto run = [&](std::vector<double>* out) {
    out->clear();
    for (const FeatureVec& b : battery) {
      out->push_back(model.EstimateCount(b));
      out->push_back(model.EstimateMarginal(b));
    }
  };
  std::vector<double> serial;
  run(&serial);
  constexpr int kThreads = 4;
  std::vector<std::vector<double>> answers(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(run, &answers[t]);
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(BitEqual(answers[t], serial)) << "thread " << t;
  }
}


// ------------------------------------------ one iterative-scaling kernel
//
// MaxEntModel, FactoredMaxEnt and ReproductionErrorOnSupport each ran
// their own IPF loop before all three moved onto FitIpf. Those loops are
// kept below as oracles; the kernel must reproduce each bit for bit.

/// MaxEntModel's former fit: a dense sweep over all 2^m classes, empty
/// ones included, then the final renormalization.
struct DenseLatticeFit {
  std::vector<double> class_prob;
  int iterations = 0;
  bool converged = false;
};

double DenseModelMarginal(const std::vector<double>& class_prob,
                          std::size_t j) {
  double acc = 0.0;
  const std::size_t bit = std::size_t(1) << j;
  for (std::size_t s = 0; s < class_prob.size(); ++s) {
    if (s & bit) acc += class_prob[s];
  }
  return acc;
}

DenseLatticeFit OracleLatticeFit(const SignatureSpace& space,
                                 const std::vector<double>& marginals,
                                 const ScalingOptions& opts) {
  DenseLatticeFit fit;
  std::vector<double>& p = fit.class_prob;
  p.assign(space.num_classes(), 0.0);
  double total = 0.0;
  for (std::size_t s = 0; s < p.size(); ++s) {
    p[s] = space.ClassFraction(static_cast<std::uint32_t>(s));
    total += p[s];
  }
  for (double& v : p) v /= total;
  for (fit.iterations = 0; fit.iterations < opts.max_iterations;
       ++fit.iterations) {
    double worst = 0.0;
    for (std::size_t j = 0; j < space.num_patterns(); ++j) {
      const std::size_t bit = std::size_t(1) << j;
      double pj = DenseModelMarginal(p, j);
      double qj = marginals[j];
      worst = std::max(worst, std::fabs(pj - qj));
      double scale_in = (pj > 0.0) ? qj / pj : 0.0;
      double scale_out = (pj < 1.0) ? (1.0 - qj) / (1.0 - pj) : 0.0;
      for (std::size_t s = 0; s < p.size(); ++s) {
        p[s] *= (s & bit) ? scale_in : scale_out;
      }
    }
    if (worst < opts.tolerance) {
      fit.converged = true;
      break;
    }
  }
  double z = 0.0;
  for (double v : p) z += v;
  if (z > 0.0) {
    for (double& v : p) v /= z;
  }
  return fit;
}

/// MaxEntModel::EntropyNats and MaxResidual as dense class loops.
double DenseEntropyNats(const SignatureSpace& space,
                        const std::vector<double>& class_prob) {
  double h = 0.0;
  for (std::size_t s = 0; s < class_prob.size(); ++s) {
    double ps = class_prob[s];
    if (ps <= 0.0) continue;
    h -= ps * std::log(ps);
    h += ps * space.LogClassSize(static_cast<std::uint32_t>(s));
  }
  return h;
}

double DenseMaxResidual(const std::vector<double>& class_prob,
                        const std::vector<double>& marginals) {
  double worst = 0.0;
  for (std::size_t j = 0; j < marginals.size(); ++j) {
    worst = std::max(worst, std::fabs(DenseModelMarginal(class_prob, j) -
                                      marginals[j]));
  }
  return worst;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Requires `model`, fitted to `marginals` over `space` with default
/// options, to carry the oracle's bits everywhere it exposes its fit.
/// Returns the number of live classes.
std::size_t ExpectLatticeFitMatchesOracle(const MaxEntModel& model,
                                          const SignatureSpace& space,
                                          const std::vector<double>& marginals,
                                          const std::string& where) {
  const DenseLatticeFit oracle =
      OracleLatticeFit(space, marginals, ScalingOptions());
  EXPECT_TRUE(BitEqual(model.class_probabilities(), oracle.class_prob))
      << where;
  EXPECT_EQ(model.iterations(), oracle.iterations) << where;
  EXPECT_EQ(model.converged(), oracle.converged) << where;
  EXPECT_TRUE(SameBits(model.EntropyNats(),
                       DenseEntropyNats(space, oracle.class_prob)))
      << where;
  EXPECT_TRUE(SameBits(model.MaxResidual(),
                       DenseMaxResidual(oracle.class_prob, marginals)))
      << where;
  std::size_t live = 0;
  for (std::uint32_t s = 0; s < space.num_classes(); ++s) {
    if (space.ClassFraction(s) > 0.0) ++live;
  }
  return live;
}

class LatticeKernelOracleTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatticeKernelOracleTest, EveryPocketComponentMatchesDenseSweep) {
  std::size_t live = 0, classes = 0;
  for (std::size_t clusters : {6, 8}) {
    QueryLog log;
    const LogRSummary summary =
        PocketPatternSummary(GetParam(), 8, &log, clusters);
    const PatternMixtureModel* model = summary.Model().AsPatternMixture();
    ASSERT_NE(model, nullptr);
    for (std::size_t i = 0; i < model->NumComponents(); ++i) {
      const PatternEncoding& enc = model->ComponentEncoding(i);
      SignatureSpace space(enc.patterns(), enc.NumFeatures());
      const std::string where = "K=" + std::to_string(clusters) +
                                " component " + std::to_string(i);
      live += ExpectLatticeFitMatchesOracle(enc.model(), space,
                                            enc.marginals(), where);
      classes += space.num_classes();
    }
  }
  // Most lattice classes are empty, so the live-only sweep is exercised.
  EXPECT_LT(2 * live, classes);
}

INSTANTIATE_TEST_SUITE_P(PocketData, LatticeKernelOracleTest,
                         ::testing::Range<std::uint64_t>(1, 11),
                         [](const ::testing::TestParamInfo<std::uint64_t>&
                                info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(LatticeKernelOracleTest, EdgeCases) {
  // m = 0: one class, no constraints, converged before any sweep.
  {
    SignatureSpace space({}, 5);
    const MaxEntModel model(&space, {});
    ExpectLatticeFitMatchesOracle(model, space, {}, "m=0");
    EXPECT_TRUE(model.converged());
    EXPECT_EQ(model.iterations(), 0);
  }
  // Marginals of exactly 0 and 1 zero one side of a constraint.
  const std::vector<FeatureVec> nested = {FeatureVec({0}), FeatureVec({1}),
                                          FeatureVec({0, 1}),
                                          FeatureVec({2, 3})};
  SignatureSpace nested_space(nested, 6);
  for (const std::vector<double>& marginals :
       std::vector<std::vector<double>>{{1.0, 0.0, 0.0, 0.25},
                                        {1.0, 1.0, 1.0, 0.0},
                                        {0.0, 0.5, 0.0, 1.0},
                                        {0.5, 0.5, 0.5, 0.0}}) {
    const MaxEntModel model(&nested_space, marginals);
    ExpectLatticeFitMatchesOracle(model, nested_space, marginals,
                                  "0/1 marginals");
  }
  // Disjoint single-feature patterns: every one of the 2^m classes is
  // live, so the live-only sweep visits the whole lattice.
  std::vector<FeatureVec> disjoint;
  for (FeatureId f = 0; f < 7; ++f) disjoint.push_back(FeatureVec({f}));
  SignatureSpace all_live(disjoint, 9);
  const std::vector<double> marginals = {0.1, 0.9, 0.5, 0.33,
                                         0.0, 1.0, 0.75};
  const MaxEntModel model(&all_live, marginals);
  EXPECT_EQ(
      ExpectLatticeFitMatchesOracle(model, all_live, marginals, "all live"),
      all_live.num_classes());
}

// FactoredMaxEnt before FitIpf: the same block partition and entropy,
// with each block fitted by this dense loop.
std::vector<double> OracleFitBlock(
    const std::vector<double>& feature_marginals,
    const std::vector<std::uint32_t>& pattern_masks,
    const std::vector<double>& pattern_marginals) {
  const std::size_t d = feature_marginals.size();
  const std::size_t states = std::size_t(1) << d;
  struct Constraint {
    std::uint32_t mask;
    double target;
  };
  std::vector<Constraint> constraints;
  for (std::size_t f = 0; f < d; ++f) {
    constraints.push_back({std::uint32_t(1) << f, feature_marginals[f]});
  }
  for (std::size_t j = 0; j < pattern_masks.size(); ++j) {
    constraints.push_back({pattern_masks[j], pattern_marginals[j]});
  }
  std::vector<double> p(states, 1.0 / static_cast<double>(states));
  constexpr int kMaxIters = 300;
  constexpr double kTol = 1e-9;
  for (int iter = 0; iter < kMaxIters; ++iter) {
    double worst = 0.0;
    for (const Constraint& c : constraints) {
      double in_mass = 0.0;
      for (std::size_t s = 0; s < states; ++s) {
        if ((s & c.mask) == c.mask) in_mass += p[s];
      }
      worst = std::max(worst, std::fabs(in_mass - c.target));
      double scale_in = in_mass > 0.0 ? c.target / in_mass : 0.0;
      double scale_out =
          in_mass < 1.0 ? (1.0 - c.target) / (1.0 - in_mass) : 0.0;
      for (std::size_t s = 0; s < states; ++s) {
        p[s] *= ((s & c.mask) == c.mask) ? scale_in : scale_out;
      }
    }
    if (worst < kTol) break;
  }
  return p;
}

/// The former FactoredMaxEnt, whole, over OracleFitBlock: retention
/// under the block ceiling, blocks keyed by union-find root, entropy and
/// marginals in the same factor order.
class LegacyFactoredMaxEnt {
 public:
  LegacyFactoredMaxEnt(
      const std::vector<std::pair<FeatureId, double>>& singletons,
      const std::vector<FactoredMaxEnt::PatternConstraint>& patterns,
      std::size_t max_block_features = 18) {
    for (const auto& [f, p] : singletons) {
      if (p > 0.0) singleton_.emplace(f, std::min(p, 1.0));
    }
    std::vector<const FactoredMaxEnt::PatternConstraint*> retained;
    for (const FactoredMaxEnt::PatternConstraint& pc : patterns) {
      if (pc.pattern.size() < 2) continue;
      if (MergedSize(pc.pattern) > max_block_features) continue;
      Merge(pc.pattern);
      retained_.push_back(pc.pattern);
      retained.push_back(&pc);
    }
    std::map<FeatureId, std::vector<const FactoredMaxEnt::PatternConstraint*>>
        by_root;
    for (const auto* pc : retained) {
      by_root[Find(pc->pattern.ids[0])].push_back(pc);
    }
    for (const auto& [root, block_patterns] : by_root) {
      Block block;
      std::unordered_map<FeatureId, std::size_t> local;
      for (const auto* pc : block_patterns) {
        for (FeatureId f : pc->pattern.ids) {
          if (!local.count(f)) {
            local[f] = block.features.size();
            block.features.push_back(f);
          }
        }
      }
      std::vector<double> fm;
      for (FeatureId f : block.features) {
        auto it = singleton_.find(f);
        fm.push_back(it == singleton_.end() ? 0.0 : it->second);
      }
      std::vector<std::uint32_t> masks;
      std::vector<double> pm;
      for (const auto* pc : block_patterns) {
        std::uint32_t mask = 0;
        for (FeatureId f : pc->pattern.ids) {
          mask |= std::uint32_t(1) << local[f];
        }
        masks.push_back(mask);
        pm.push_back(pc->marginal);
      }
      block.state_prob = OracleFitBlock(fm, masks, pm);
      for (FeatureId f : block.features) block_of_.emplace(f, blocks_.size());
      blocks_.push_back(std::move(block));
    }
    double h = 0.0;
    for (const auto& [f, p] : singleton_) {
      if (!block_of_.count(f)) h += BinaryEntropy(p);
    }
    for (const Block& b : blocks_) h += Entropy(b.state_prob);
    entropy_ = h;
  }

  double EntropyNats() const { return entropy_; }
  const std::vector<FeatureVec>& retained_patterns() const {
    return retained_;
  }
  std::size_t num_blocks() const { return blocks_.size(); }

  double MarginalOf(const FeatureVec& b) const {
    double prob = 1.0;
    std::map<std::size_t, std::uint32_t> block_masks;
    for (FeatureId f : b.ids) {
      auto blk = block_of_.find(f);
      if (blk == block_of_.end()) {
        auto it = singleton_.find(f);
        if (it == singleton_.end()) return 0.0;
        prob *= it->second;
        continue;
      }
      const Block& block = blocks_[blk->second];
      std::size_t local = 0;
      while (block.features[local] != f) ++local;
      block_masks[blk->second] |= std::uint32_t(1) << local;
    }
    for (const auto& [bi, mask] : block_masks) {
      double acc = 0.0;
      const std::vector<double>& p = blocks_[bi].state_prob;
      for (std::size_t s = 0; s < p.size(); ++s) {
        if ((s & mask) == mask) acc += p[s];
      }
      prob *= acc;
    }
    return prob;
  }

 private:
  struct Block {
    std::vector<FeatureId> features;
    std::vector<double> state_prob;
  };

  FeatureId Find(FeatureId f) {
    if (!parent_.count(f)) {
      parent_[f] = f;
      size_[f] = 1;
      return f;
    }
    FeatureId root = f;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[f] != root) {
      FeatureId next = parent_[f];
      parent_[f] = root;
      f = next;
    }
    return root;
  }

  std::size_t MergedSize(const FeatureVec& feats) {
    std::size_t total = 0;
    std::map<FeatureId, bool> roots;
    for (FeatureId f : feats.ids) {
      if (!parent_.count(f)) {
        ++total;
        continue;
      }
      FeatureId r = Find(f);
      if (!roots.count(r)) {
        roots[r] = true;
        total += size_[r];
      }
    }
    return total;
  }

  void Merge(const FeatureVec& feats) {
    FeatureId r0 = Find(feats.ids[0]);
    for (std::size_t i = 1; i < feats.ids.size(); ++i) {
      FeatureId r = Find(feats.ids[i]);
      if (r == r0) continue;
      size_[r0] += size_[r];
      parent_[r] = r0;
    }
  }

  std::unordered_map<FeatureId, FeatureId> parent_;
  std::unordered_map<FeatureId, std::size_t> size_;
  std::unordered_map<FeatureId, double> singleton_;
  std::unordered_map<FeatureId, std::size_t> block_of_;
  std::vector<Block> blocks_;
  std::vector<FeatureVec> retained_;
  double entropy_ = 0.0;
};

TEST(FactoredKernelOracleTest, RefinedPocketComponentsMatchLegacyFit) {
  std::size_t blocks = 0;
  for (std::uint64_t seed : {1, 4, 11}) {
    PocketDataOptions gen;
    gen.seed = seed;
    const QueryLog log = LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
    LogROptions opts;
    opts.num_clusters = 8;
    opts.n_init = 1;
    opts.encoder = "refined";
    const LogRSummary summary = Compress(log, opts);
    const NaiveMixtureEncoding* mixture = summary.Model().AsNaiveMixture();
    ASSERT_NE(mixture, nullptr);
    for (std::size_t c = 0; c < mixture->NumComponents(); ++c) {
      const std::vector<FeatureVec> patterns =
          summary.Model().ComponentPatterns(c);
      if (patterns.empty()) continue;
      // The refined encoder's inputs for this component: the naive
      // singletons plus its retained patterns at their measured marginals.
      const QueryLog sublog =
          LogView(log).MaterializeSubset(mixture->Component(c).members);
      const NaiveEncoding naive = NaiveEncoding::FromLog(sublog);
      std::vector<std::pair<FeatureId, double>> singletons;
      for (std::size_t i = 0; i < naive.features().size(); ++i) {
        singletons.emplace_back(naive.features()[i], naive.marginals()[i]);
      }
      std::vector<FactoredMaxEnt::PatternConstraint> constraints;
      for (const FeatureVec& b : patterns) {
        constraints.push_back({b, sublog.Marginal(b)});
      }
      const FactoredMaxEnt model(singletons, constraints);
      const LegacyFactoredMaxEnt oracle(singletons, constraints);
      const std::string where =
          "seed " + std::to_string(seed) + " component " + std::to_string(c);
      ASSERT_EQ(model.num_blocks(), oracle.num_blocks()) << where;
      EXPECT_EQ(model.retained_patterns(), oracle.retained_patterns())
          << where;
      EXPECT_TRUE(SameBits(model.EntropyNats(), oracle.EntropyNats()))
          << where;
      std::vector<FeatureVec> battery = EstimateBattery(sublog);
      for (std::size_t j = 0; j < patterns.size(); ++j) {
        battery.push_back(patterns[j]);
        battery.push_back(
            FeatureVec::Union(patterns[j], patterns[(j + 1) % patterns.size()]));
      }
      for (const FeatureVec& b : battery) {
        EXPECT_TRUE(SameBits(model.MarginalOf(b), oracle.MarginalOf(b)))
            << where << " |b|=" << b.size();
      }
      blocks += model.num_blocks();
    }
  }
  EXPECT_GT(blocks, 0u);
}

/// ReproductionErrorOnSupport before FitIpf, with its former defaults.
double OracleReproductionErrorOnSupport(const ProjectedLog& log,
                                        const ProjectedEncoding& encoding) {
  const int max_iterations = 500;
  const double tolerance = 1e-10;
  const std::size_t m = encoding.patterns.size();
  std::unordered_map<std::uint32_t, std::size_t> class_index;
  std::vector<double> class_count;
  std::vector<std::uint32_t> class_sig;
  for (std::size_t i = 0; i < log.num_distinct(); ++i) {
    std::uint32_t s = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (log.Vector(i).ContainsAll(encoding.patterns[j])) {
        s |= std::uint32_t(1) << j;
      }
    }
    auto it = class_index.find(s);
    if (it == class_index.end()) {
      class_index.emplace(s, class_sig.size());
      class_sig.push_back(s);
      class_count.push_back(1.0);
    } else {
      class_count[it->second] += 1.0;
    }
  }
  const std::size_t classes = class_sig.size();
  std::vector<double> p(classes);
  double total_count = 0.0;
  for (double c : class_count) total_count += c;
  for (std::size_t c = 0; c < classes; ++c) {
    p[c] = class_count[c] / total_count;
  }
  for (int iter = 0; iter < max_iterations; ++iter) {
    double worst = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint32_t bit = std::uint32_t(1) << j;
      double in_mass = 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        if (class_sig[c] & bit) in_mass += p[c];
      }
      double target = encoding.marginals[j];
      worst = std::max(worst, std::fabs(in_mass - target));
      double scale_in = in_mass > 0.0 ? target / in_mass : 0.0;
      double scale_out =
          in_mass < 1.0 ? (1.0 - target) / (1.0 - in_mass) : 0.0;
      for (std::size_t c = 0; c < classes; ++c) {
        p[c] *= (class_sig[c] & bit) ? scale_in : scale_out;
      }
    }
    if (worst < tolerance) break;
  }
  double h = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    if (p[c] <= 0.0) continue;
    h -= p[c] * std::log(p[c] / class_count[c]);
  }
  return h - log.EmpiricalEntropy();
}

/// The Figure 4 validation's encodings: the log projected onto at most
/// ten features in the 1%-99% band, candidate pairs and triples spread
/// over the marginal spectrum, and every encoding of 1-3 candidates (up
/// to 64).
std::vector<ProjectedEncoding> Fig4Encodings(const ProjectedLog& proj) {
  const std::size_t n = proj.num_features();
  std::vector<std::pair<double, FeatureVec>> scored;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      FeatureVec pair({static_cast<FeatureId>(a), static_cast<FeatureId>(b)});
      if (proj.Marginal(pair) > 0.0) {
        scored.emplace_back(proj.Marginal(pair), pair);
      }
      if (b + 1 < n) {
        FeatureVec triple({static_cast<FeatureId>(a),
                           static_cast<FeatureId>(b),
                           static_cast<FeatureId>(b + 1)});
        if (proj.Marginal(triple) > 0.0) {
          scored.emplace_back(proj.Marginal(triple), triple);
        }
      }
    }
  }
  std::sort(scored.begin(), scored.end(),
            [](const auto& x, const auto& y) { return x.first > y.first; });
  std::vector<FeatureVec> candidates;
  for (std::size_t i = 0; i < scored.size() && candidates.size() < 8;
       i += std::max<std::size_t>(1, scored.size() / 8)) {
    candidates.push_back(scored[i].second);
  }
  std::vector<std::vector<std::size_t>> subsets;
  const std::size_t m = candidates.size();
  for (std::size_t a = 0; a < m; ++a) {
    subsets.push_back({a});
    for (std::size_t b = a + 1; b < m; ++b) {
      subsets.push_back({a, b});
      for (std::size_t c = b + 1; c < m && subsets.size() < 64; ++c) {
        subsets.push_back({a, b, c});
      }
    }
  }
  std::vector<ProjectedEncoding> encodings;
  for (const std::vector<std::size_t>& idx : subsets) {
    std::vector<FeatureVec> pats;
    for (std::size_t i : idx) pats.push_back(candidates[i]);
    encodings.push_back(ProjectedEncoding::Measure(proj, std::move(pats)));
  }
  return encodings;
}

TEST(SupportKernelOracleTest, Fig4EncodingsMatchLegacyFit) {
  std::vector<QueryLog> logs;
  logs.push_back(LoadEntries(GenerateBankLog(BankLogOptions())).TakeLog());
  for (std::uint64_t seed : {1, 4, 11}) {
    PocketDataOptions gen;
    gen.seed = seed;
    logs.push_back(LoadEntries(GeneratePocketDataLog(gen)).TakeLog());
  }
  std::size_t compared = 0;
  for (const QueryLog& log : logs) {
    std::vector<FeatureId> band =
        ProjectedLog::SelectFeaturesInBand(log, 0.01, 0.99);
    if (band.size() > 10) band.resize(10);
    const ProjectedLog proj(log, band);
    for (const ProjectedEncoding& e : Fig4Encodings(proj)) {
      EXPECT_TRUE(SameBits(ReproductionErrorOnSupport(proj, e),
                           OracleReproductionErrorOnSupport(proj, e)))
          << "|E|=" << e.patterns.size();
      ++compared;
    }
  }
  EXPECT_GT(compared, 100u);
}

// ------------------------------------------- brute-force max-ent oracle
//
// On a universe of n <= 8 features every vector can be enumerated, so
// the max-ent distribution is fitted directly over all 2^n vectors by
// textbook IPF (vector v holds feature f iff bit f of v is set). The
// lattice and factored models must reach the same fixed point.

FeatureVec FeaturesOf(std::uint32_t mask) {
  std::vector<FeatureId> ids;
  for (FeatureId f = 0; f < 32; ++f) {
    if (mask & (std::uint32_t(1) << f)) ids.push_back(f);
  }
  return FeatureVec(std::move(ids));
}

std::uint32_t MaskOf(const FeatureVec& b) {
  std::uint32_t mask = 0;
  for (FeatureId f : b.ids) mask |= std::uint32_t(1) << f;
  return mask;
}

double BruteMarginal(const std::vector<double>& p, std::uint32_t mask) {
  double acc = 0.0;
  for (std::uint32_t v = 0; v < p.size(); ++v) {
    if ((v & mask) == mask) acc += p[v];
  }
  return acc;
}

/// Max-ent distribution over {0,1}^n with p(Q ⊇ mask_k) = target_k:
/// from uniform, rescale each constraint's holding and non-holding
/// vectors in turn until every residual is below 1e-14.
std::vector<double> BruteForceMaxEnt(
    std::size_t n,
    const std::vector<std::pair<std::uint32_t, double>>& constraints) {
  const std::size_t size = std::size_t(1) << n;
  std::vector<double> p(size, 1.0 / static_cast<double>(size));
  for (int sweep = 0; sweep < 100000; ++sweep) {
    double worst = 0.0;
    for (const auto& [mask, target] : constraints) {
      const double in = BruteMarginal(p, mask);
      worst = std::max(worst, std::fabs(in - target));
      for (std::uint32_t v = 0; v < size; ++v) {
        p[v] *= (v & mask) == mask ? target / in
                                   : (1.0 - target) / (1.0 - in);
      }
    }
    if (worst < 1e-14) break;
  }
  return p;
}

/// A strictly positive random distribution over {0,1}^n, so every
/// measured marginal is consistent and lies strictly inside (0, 1).
std::vector<double> RandomPositiveDistribution(std::size_t n, Pcg32* rng) {
  std::vector<double> p(std::size_t(1) << n);
  double total = 0.0;
  for (double& v : p) {
    v = std::exp(3.0 * rng->NextDouble());
    total += v;
  }
  for (double& v : p) v /= total;
  return p;
}

/// 1-3 distinct random features of an n-feature universe.
FeatureVec RandomPattern(std::size_t n, std::size_t max_size, Pcg32* rng) {
  const std::size_t size = 1 + rng->NextBounded(
                                   static_cast<std::uint32_t>(max_size));
  std::uint32_t mask = 0;
  while (static_cast<std::size_t>(__builtin_popcount(mask)) < size) {
    mask |= std::uint32_t(1) << rng->NextBounded(static_cast<std::uint32_t>(n));
  }
  return FeaturesOf(mask);
}

TEST(BruteForceMaxEntTest, LatticeModelMatchesEnumeration) {
  Pcg32 rng(2018);
  int converged = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 3 + trial % 6;
    const std::vector<double> truth = RandomPositiveDistribution(n, &rng);
    std::vector<FeatureVec> patterns;
    const std::size_t m = 1 + rng.NextBounded(6);
    for (std::size_t j = 0; j < m; ++j) {
      patterns.push_back(RandomPattern(n, 3, &rng));
    }
    // Nest one pattern in another so some lattice classes are empty.
    patterns.push_back(FeatureVec::Union(patterns[0], RandomPattern(n, 1, &rng)));
    std::vector<double> marginals;
    std::vector<std::pair<std::uint32_t, double>> constraints;
    for (const FeatureVec& b : patterns) {
      marginals.push_back(BruteMarginal(truth, MaskOf(b)));
      constraints.emplace_back(MaskOf(b), marginals.back());
    }
    SignatureSpace space(patterns, n);
    // A tolerance well below the comparison's, so the entropy (which a
    // residual moves through the Lagrange multipliers) is settled too.
    MaxEntModel model(&space, marginals, ScalingOptions{20000, 1e-13});
    if (!model.converged()) continue;
    ++converged;
    const std::vector<double> p = BruteForceMaxEnt(n, constraints);
    EXPECT_NEAR(model.EntropyNats(), Entropy(p), 1e-9) << "trial " << trial;
    std::vector<FeatureVec> probes = patterns;
    for (FeatureId f = 0; f < n; ++f) probes.push_back(FeatureVec({f}));
    probes.push_back(RandomPattern(n, 3, &rng));
    for (const FeatureVec& b : probes) {
      EXPECT_NEAR(model.MarginalOf(b), BruteMarginal(p, MaskOf(b)), 1e-9)
          << "trial " << trial << " |b|=" << b.size();
    }
  }
  EXPECT_GE(converged, 30);
}

TEST(BruteForceMaxEntTest, FactoredModelMatchesEnumeration) {
  Pcg32 rng(1995);
  int converged = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 3 + trial % 6;
    const std::vector<double> truth = RandomPositiveDistribution(n, &rng);
    std::vector<std::pair<FeatureId, double>> singletons;
    std::vector<std::pair<std::uint32_t, double>> constraints;
    for (FeatureId f = 0; f < n; ++f) {
      singletons.emplace_back(f, BruteMarginal(truth, std::uint32_t(1) << f));
      constraints.emplace_back(std::uint32_t(1) << f, singletons.back().second);
    }
    std::vector<FactoredMaxEnt::PatternConstraint> patterns;
    const std::size_t m = 1 + rng.NextBounded(4);
    for (std::size_t j = 0; j < m; ++j) {
      FeatureVec b = RandomPattern(n, 3, &rng);
      if (b.size() < 2) continue;
      patterns.push_back({b, BruteMarginal(truth, MaskOf(b))});
      constraints.emplace_back(MaskOf(b), patterns.back().marginal);
    }
    FactoredMaxEnt model(singletons, patterns);
    if (!model.converged()) continue;
    ++converged;
    const std::vector<double> p = BruteForceMaxEnt(n, constraints);
    // The block fit's fixed 1e-9 residual tolerance bounds each marginal
    // to about 1e-9, but moves the entropy by the residuals times the
    // Lagrange multipliers: up to 1.2e-9 on these draws.
    EXPECT_NEAR(model.EntropyNats(), Entropy(p), 1e-8) << "trial " << trial;
    std::vector<FeatureVec> probes;
    for (const auto& pc : patterns) probes.push_back(pc.pattern);
    for (FeatureId f = 0; f < n; ++f) probes.push_back(FeatureVec({f}));
    probes.push_back(RandomPattern(n, 3, &rng));
    probes.push_back(FeaturesOf((std::uint32_t(1) << n) - 1));
    for (const FeatureVec& b : probes) {
      EXPECT_NEAR(model.MarginalOf(b), BruteMarginal(p, MaskOf(b)), 1e-9)
          << "trial " << trial << " |b|=" << b.size();
    }
  }
  EXPECT_GE(converged, 30);
}

}  // namespace
}  // namespace logr
