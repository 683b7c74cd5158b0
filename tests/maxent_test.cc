#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "core/logr_compressor.h"
#include "core/pattern_model.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "maxent/deviation.h"
#include "maxent/entropy.h"
#include "maxent/omega_sampler.h"
#include "maxent/projected_log.h"
#include "maxent/scaling.h"
#include "maxent/signature_space.h"
#include "util/prng.h"

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

TEST(EntropyTest, KlDivergenceProperties) {
  std::vector<double> p = {0.5, 0.5};
  std::vector<double> q = {0.9, 0.1};
  EXPECT_NEAR(KlDivergence(p, p), 0.0, 1e-12);
  EXPECT_GT(KlDivergence(p, q), 0.0);
  // Smoothing keeps KL finite when q has zeros.
  std::vector<double> q0 = {1.0, 0.0};
  EXPECT_TRUE(std::isfinite(KlDivergence(p, q0)));
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

/// A PocketData "pattern" summary at K = 8, the served shape.
LogRSummary PocketPatternSummary(std::uint64_t seed, std::size_t budget,
                                 QueryLog* log) {
  PocketDataOptions gen;
  gen.seed = seed;
  *log = LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
  LogROptions opts;
  opts.num_clusters = 8;
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

}  // namespace
}  // namespace logr
