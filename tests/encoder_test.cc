// Tests for the encoder stage: the Encoder names and Mergeable, the
// refined and pattern budget defaults, bit-identity of the "naive"
// encoder with the direct cluster->FromPartition pipeline,
// cross-encoder invariants (refined Error <= naive Error, facade
// consistency), the PatternEncoding lattice cap, and the refusal of
// v1 text summaries. Pool-size independence and reload bit-identity of
// every encoder are equivalence_test's pool and reload legs.
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "core/encoder.h"
#include "core/logr_compressor.h"
#include "core/pattern_encoding.h"
#include "core/serialization.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "util/prng.h"

namespace logr {
namespace {

QueryLog GroupedLog(std::size_t groups, std::size_t per_group,
                    std::uint64_t seed) {
  Pcg32 rng(seed);
  QueryLog log;
  // Intern a codebook entry per feature id so summaries serialize.
  for (std::size_t f = 0; f < groups * 8; ++f) {
    log.mutable_vocabulary()->Intern(
        {FeatureClause::kSelect, "col" + std::to_string(f)});
  }
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

QueryLog SmallPocketLog() {
  PocketDataOptions gen;
  gen.num_distinct = 150;
  gen.total_queries = 50000;
  return LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
}

QueryLog SmallBankLog() {
  BankLogOptions gen;
  gen.num_templates = 150;
  gen.total_queries = 40000;
  return LoadEntries(GenerateBankLog(gen)).TakeLog();
}

TEST(EncoderTest, NamesRoundTrip) {
  for (Encoder e : {Encoder::kNaive, Encoder::kRefined, Encoder::kPattern}) {
    Encoder parsed = Encoder::kNaive;
    ASSERT_TRUE(ParseEncoder(EncoderName(e), &parsed)) << EncoderName(e);
    EXPECT_EQ(parsed, e) << EncoderName(e);
  }
  EXPECT_STREQ(EncoderName(Encoder::kNaive), "naive");
  EXPECT_STREQ(EncoderName(Encoder::kRefined), "refined");
  EXPECT_STREQ(EncoderName(Encoder::kPattern), "pattern");
  // The naive family merges; general pattern encodings do not.
  EXPECT_TRUE(Mergeable(Encoder::kNaive));
  EXPECT_TRUE(Mergeable(Encoder::kRefined));
  EXPECT_FALSE(Mergeable(Encoder::kPattern));
  // An unknown name leaves the output untouched.
  Encoder out = Encoder::kRefined;
  EXPECT_FALSE(ParseEncoder("no-such-encoder", &out));
  EXPECT_EQ(out, Encoder::kRefined);
}

TEST(EncoderTest, RefineMixtureZeroBudgetUsesDefault) {
  // A budget of 0 selects the default budget rather than refining
  // nothing: the refined model retains patterns, as many as budget 4.
  QueryLog log = SmallBankLog();
  std::vector<int> assignment(log.NumDistinct());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<int>(i % 3);
  }
  auto patterns = [&](std::size_t budget) {
    const auto model = RefineMixture(
        log, NaiveMixtureEncoding::FromPartition(log, assignment, 3),
        budget);
    std::vector<std::vector<FeatureVec>> out;
    for (std::size_t c = 0; c < model->NumComponents(); ++c) {
      out.push_back(model->ComponentPatterns(c));
    }
    return out;
  };
  const std::vector<std::vector<FeatureVec>> by_default = patterns(0);
  std::size_t retained = 0;
  for (const std::vector<FeatureVec>& p : by_default) retained += p.size();
  EXPECT_GT(retained, 0u);
  EXPECT_EQ(by_default, patterns(4));
}

/// A model with neither a naive nor a pattern payload: WorkloadModel is
/// a public facade, so WriteSummary can be handed one.
class ConstantModel : public WorkloadModel {
 public:
  explicit ConstantModel(std::uint64_t log_size) : log_size_(log_size) {}
  const char* EncoderName() const override { return "test_constant"; }
  double Error() const override { return 0.0; }
  std::size_t TotalVerbosity() const override { return 1; }
  std::size_t NumComponents() const override { return 1; }
  std::uint64_t LogSize() const override { return log_size_; }
  double EstimateMarginal(const FeatureVec&) const override { return 0.5; }
  double ComponentWeight(std::size_t) const override { return 1.0; }
  std::uint64_t ComponentLogSize(std::size_t) const override {
    return log_size_;
  }
  std::size_t ComponentVerbosity(std::size_t) const override { return 1; }
  double ComponentError(std::size_t) const override { return 0.0; }
  std::vector<FeatureId> ComponentFeatures(std::size_t) const override {
    return {0};
  }
  double ComponentMarginal(std::size_t, FeatureId) const override {
    return 0.5;
  }

 private:
  std::uint64_t log_size_ = 0;
};

TEST(EncoderTest, WriteSummaryRefusesModelWithoutPayload) {
  QueryLog log = GroupedLog(3, 10, 77);
  const ConstantModel model(log.TotalQueries());
  std::stringstream buffer;
  std::string error;
  EXPECT_FALSE(WriteSummary(log.vocabulary(), model, &buffer, &error));
  EXPECT_NE(error.find(model.EncoderName()), std::string::npos) << error;
}

TEST(EncoderTest, NaiveEncoderBitIdenticalToDirectPipeline) {
  // The "naive" encoder must reproduce the hand-built pipeline —
  // cluster with k-means, encode with FromPartition — to the bit, same
  // seed / threads.
  QueryLog log = SmallPocketLog();
  LogROptions opts;
  opts.encoder = "naive";
  opts.num_clusters = 7;
  opts.seed = 31;
  LogRSummary s = Compress(log, opts);

  // Replicate the pipeline by hand.
  std::vector<FeatureVec> vecs;
  std::vector<double> weights;
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    vecs.push_back(log.Vector(i));
    weights.push_back(static_cast<double>(log.Multiplicity(i)));
  }
  ClusterRequest req;
  req.k = 7;
  req.num_features = log.NumFeatures();
  req.seed = 31;
  req.n_init = opts.n_init;
  req.pool = ThreadPool::Shared();
  std::vector<int> assignment =
      Cluster(ClusteringMethod::kKMeansEuclidean, vecs, weights, req);
  NaiveMixtureEncoding direct =
      NaiveMixtureEncoding::FromPartition(log, assignment, 7,
                                          ThreadPool::Shared());

  EXPECT_EQ(s.assignment, assignment);
  const NaiveMixtureEncoding* mix = s.Model().AsNaiveMixture();
  ASSERT_NE(mix, nullptr);
  ASSERT_EQ(mix->NumComponents(), direct.NumComponents());
  for (std::size_t c = 0; c < direct.NumComponents(); ++c) {
    const NaiveEncoding& a = mix->Component(c).encoding;
    const NaiveEncoding& b = direct.Component(c).encoding;
    EXPECT_EQ(mix->Component(c).weight, direct.Component(c).weight) << c;
    EXPECT_EQ(a.LogSize(), b.LogSize()) << c;
    EXPECT_EQ(a.features(), b.features()) << c;
    EXPECT_EQ(a.marginals(), b.marginals()) << c;
    EXPECT_EQ(a.EmpiricalEntropy(), b.EmpiricalEntropy()) << c;
    EXPECT_EQ(a.MaxEntEntropy(), b.MaxEntEntropy()) << c;
  }
  EXPECT_EQ(s.Model().Error(), direct.Error());
  EXPECT_EQ(s.Model().TotalVerbosity(), direct.TotalVerbosity());
}

TEST(EncoderTest, RefinedErrorAtMostNaiveOnPaperShapedWorkloads) {
  struct Case {
    const char* name;
    QueryLog log;
  };
  std::vector<Case> cases;
  cases.push_back({"bank", SmallBankLog()});
  cases.push_back({"pocketdata", SmallPocketLog()});
  for (Case& c : cases) {
    LogROptions opts;
    opts.num_clusters = 6;
    opts.seed = 5;
    opts.encoder = "naive";
    LogRSummary naive = Compress(c.log, opts);
    opts.encoder = "refined";
    opts.refine_patterns = 4;
    LogRSummary refined = Compress(c.log, opts);

    EXPECT_LE(refined.Model().Error(), naive.Model().Error() + 1e-9)
        << c.name;
    EXPECT_EQ(refined.Model().BaseError(), naive.Model().Error()) << c.name;
    // Refinement adds patterns on top of the naive marginals, so
    // verbosity can only grow, and estimates (naive delegation) agree.
    EXPECT_GE(refined.Model().TotalVerbosity(),
              naive.Model().TotalVerbosity())
        << c.name;
    for (std::size_t i = 0; i < 10 && i < c.log.NumDistinct(); ++i) {
      const FeatureVec& probe = c.log.Vector(i);
      EXPECT_NEAR(refined.Model().EstimateCount(probe),
                  naive.Model().EstimateCount(probe), 1e-9)
          << c.name << " probe " << i;
    }
  }
}

TEST(EncoderTest, PatternEncoderCapsPerComponentBudget) {
  QueryLog log = GroupedLog(3, 12, 91);
  LogROptions opts;
  opts.encoder = "pattern";
  opts.num_clusters = 3;
  // Over-budget request: the encoder must cap at the lattice ceiling
  // instead of letting PatternEncoding abort.
  opts.pattern_budget = 50;
  LogRSummary s = Compress(log, opts);
  EXPECT_STREQ(s.Model().EncoderName(), "pattern");
  EXPECT_EQ(s.Model().NumComponents(), 3u);
  EXPECT_GE(s.Model().Error(), -1e-9);
  std::size_t total_patterns = 0;
  for (std::size_t c = 0; c < s.Model().NumComponents(); ++c) {
    std::vector<FeatureVec> patterns = s.Model().ComponentPatterns(c);
    // The encoder clamps below the lattice hard cap (its practical
    // ceiling is tighter still — fit cost is exponential in m).
    EXPECT_LE(patterns.size(), PatternEncoding::kMaxPatterns) << c;
    EXPECT_LE(patterns.size(), 12u) << c;
    EXPECT_FALSE(patterns.empty()) << c;
    total_patterns += patterns.size();
  }
  EXPECT_EQ(s.Model().TotalVerbosity(), total_patterns);
  // Pattern summaries are not backed by a naive mixture; they expose
  // their concrete components through AsPatternMixture for the
  // serializer instead.
  EXPECT_EQ(s.Model().AsNaiveMixture(), nullptr);
  EXPECT_NE(s.Model().AsPatternMixture(), nullptr);
}

TEST(EncoderTest, FacadeIsConsistentAcrossEncoders) {
  QueryLog log = GroupedLog(4, 10, 13);
  for (const char* name : {"naive", "refined", "pattern"}) {
    LogROptions opts;
    opts.encoder = name;
    opts.num_clusters = 4;
    opts.pattern_budget = 6;
    LogRSummary s = Compress(log, opts);
    const WorkloadModel& model = s.Model();
    EXPECT_STREQ(model.EncoderName(), name);
    EXPECT_EQ(model.LogSize(), log.TotalQueries()) << name;
    double weight_sum = 0.0;
    for (std::size_t c = 0; c < model.NumComponents(); ++c) {
      weight_sum += model.ComponentWeight(c);
      std::vector<FeatureId> features = model.ComponentFeatures(c);
      EXPECT_TRUE(std::is_sorted(features.begin(), features.end()))
          << name << " component " << c;
      for (FeatureId f : features) {
        double m = model.ComponentMarginal(c, f);
        EXPECT_GE(m, 0.0) << name;
        EXPECT_LE(m, 1.0 + 1e-9) << name;
      }
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-9) << name;
    FeatureVec probe({0});
    EXPECT_NEAR(model.EstimateCount(probe),
                static_cast<double>(model.LogSize()) *
                    model.EstimateMarginal(probe),
                1e-6 * static_cast<double>(model.LogSize()))
        << name;
  }
}

TEST(EncoderDeathTest, PatternEncodingRejectsTooManyPatterns) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  QueryLog log;
  std::vector<FeatureId> all;
  for (FeatureId f = 0; f < 21; ++f) all.push_back(f);
  log.Add(FeatureVec(all), 10);
  std::vector<FeatureVec> patterns;
  for (FeatureId f = 0; f < 21; ++f) patterns.push_back(FeatureVec({f}));
  ASSERT_GT(patterns.size(), PatternEncoding::kMaxPatterns);
  EXPECT_DEATH(PatternEncoding(log, patterns), "kMaxPatterns");
}

TEST(EncoderDeathTest, ShardedCompressionRejectsNonMergeableEncoder) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  QueryLog log = GroupedLog(3, 10, 7);
  LogROptions opts;
  opts.encoder = "pattern";
  opts.num_clusters = 2;
  opts.num_shards = 2;
  EXPECT_DEATH(Compress(log, opts), "mergeable");
}

TEST(EncoderTest, MergeSummariesRejectsNonMergeableParts) {
  QueryLog log = GroupedLog(2, 8, 3);
  LogROptions opts;
  opts.num_clusters = 2;
  std::vector<PersistedSummary> parts;
  std::string error;
  for (const char* encoder : {"naive", "pattern"}) {
    opts.encoder = encoder;
    LogRSummary summary = Compress(log, opts);
    std::stringstream buffer;
    ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                             &error))
        << error;
    parts.emplace_back();
    ASSERT_TRUE(ReadSummary(&buffer, &parts.back(), &error)) << error;
  }

  // One part without a naive payload refuses the whole merge.
  PersistedSummary out;
  EXPECT_FALSE(MergeSummaries(parts, 0, nullptr, &out, &error));
  EXPECT_NE(error.find("encoder 'pattern' cannot be merged"),
            std::string::npos)
      << error;
  // The naive part alone merges fine.
  parts.pop_back();
  EXPECT_TRUE(MergeSummaries(parts, 0, nullptr, &out, &error)) << error;
}

TEST(EncoderTest, TextSummariesAreRefusedWithTheFix) {
  // A pre-encoder v1 text file is no longer read; the error says how to
  // get a summary that is.
  const char* v1 =
      "logr-summary v1\n"
      "features 3\n"
      "f 0 id\n"
      "f 1 messages\n"
      "f 2 status = ?\n"
      "clusters 2\n"
      "cluster 0.6 60 0.5 2\n"
      "m 0 1\n"
      "m 1 0.5\n"
      "cluster 0.4 40 0 1\n"
      "m 2 1\n";
  std::stringstream in(v1);
  PersistedSummary s;
  std::string error;
  EXPECT_FALSE(ReadSummary(&in, &s, &error));
  EXPECT_EQ(error,
            "not a summary v4 file (summary v1-v3 text is no longer read; "
            "re-run `logr_cli compress` on the log)");

  // The demo summary (`logr_cli demo` writes it as v4) loads when the
  // test runs from the build tree.
  for (const char* path :
       {"demo_summary.logr", "../demo_summary.logr",
        "../../demo_summary.logr"}) {
    std::ifstream file(path);
    if (!file) continue;
    PersistedSummary demo;
    EXPECT_TRUE(ReadSummary(&file, &demo, &error)) << path << ": " << error;
    EXPECT_GT(demo.model->NumComponents(), 0u) << path;
    break;
  }
}

}  // namespace
}  // namespace logr
