// Tests for the pluggable encoder stage: EncoderRegistry resolution
// (built-ins plus a runtime-registered fake), bit-identity of the
// "naive" backend with the direct cluster->FromPartition pipeline,
// cross-encoder invariants (refined Error <= naive Error, facade
// consistency), the PatternEncoding lattice cap, and serialization
// v1 compatibility / v2 encoder-tag round-trips.
#include <cmath>
#include <fstream>
#include <set>
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

TEST(EncoderRegistryTest, ResolvesEveryBuiltInBackend) {
  EncoderRegistry& registry = EncoderRegistry::Instance();
  const Encoder* naive = registry.Find("naive");
  const Encoder* refined = registry.Find("refined");
  const Encoder* pattern = registry.Find("pattern");
  ASSERT_NE(naive, nullptr);
  ASSERT_NE(refined, nullptr);
  ASSERT_NE(pattern, nullptr);
  // The naive family merges; general pattern encodings do not.
  EXPECT_TRUE(naive->Mergeable());
  EXPECT_TRUE(refined->Mergeable());
  EXPECT_FALSE(pattern->Mergeable());
  EXPECT_EQ(registry.Find("no-such-encoder"), nullptr);
  std::vector<std::string> names = registry.Names();
  EXPECT_NE(std::find(names.begin(), names.end(), "naive"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "refined"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "pattern"), names.end());
  // Every registered name is a distinct encoder: no aliases.
  std::set<const Encoder*> encoders;
  for (const std::string& name : names) {
    EXPECT_TRUE(encoders.insert(registry.Find(name)).second) << name;
  }
}

/// A deliberately trivial model + encoder pair registered at runtime to
/// prove third-party summarizers plug into the compressor without
/// touching src/core/.
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

class ConstantEncoder : public Encoder {
 public:
  const char* Name() const override { return "test_constant"; }
  std::shared_ptr<const WorkloadModel> Encode(
      const LogView& log, const std::vector<int>&,
      const EncodeRequest&) const override {
    return std::make_shared<ConstantModel>(log.TotalQueries());
  }
};

TEST(EncoderRegistryTest, RuntimeRegisteredEncoderWorksEndToEnd) {
  EncoderRegistry& registry = EncoderRegistry::Instance();
  if (registry.Find("test_constant") == nullptr) {
    ASSERT_TRUE(registry.Register("test_constant",
                                  std::make_shared<ConstantEncoder>()));
  }
  // Duplicate registration is rejected, not silently replaced.
  EXPECT_FALSE(registry.Register("test_constant",
                                 std::make_shared<ConstantEncoder>()));

  QueryLog log = GroupedLog(3, 10, 77);
  LogROptions opts;
  opts.encoder = "test_constant";
  opts.num_clusters = 4;
  LogRSummary s = Compress(log, opts);
  EXPECT_STREQ(s.Model().EncoderName(), "test_constant");
  EXPECT_EQ(s.Model().NumComponents(), 1u);
  EXPECT_EQ(s.Model().LogSize(), log.TotalQueries());
  EXPECT_NEAR(s.Model().EstimateCount(FeatureVec({0})),
              0.5 * static_cast<double>(log.TotalQueries()), 1e-9);
  // Non-mergeable custom models cannot be serialized.
  std::stringstream buffer;
  std::string error;
  EXPECT_FALSE(WriteSummary(log.vocabulary(), s.Model(), &buffer, &error));
  EXPECT_NE(error.find("test_constant"), std::string::npos) << error;
}

TEST(EncoderTest, NaiveViaRegistryBitIdenticalToDirectPipeline) {
  // The registry-resolved "naive" backend must reproduce the
  // pre-registry pipeline — cluster with the registry backend, encode
  // with FromPartition — to the bit, same seed / threads.
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
  const Clusterer* kmeans =
      ClustererRegistry::Instance().Find("KmeansEuclidean");
  ASSERT_NE(kmeans, nullptr);
  ClusterRequest req;
  req.k = 7;
  req.num_features = log.NumFeatures();
  req.seed = 31;
  req.n_init = opts.n_init;
  req.pool = ThreadPool::Shared();
  std::vector<int> assignment = kmeans->Cluster(vecs, weights, req);
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

TEST(EncoderTest, RefinedEncoderParallelBitIdenticalToSerial) {
  // Per-component pattern fits run across the pool into disjoint
  // slots, so a wide pool must reproduce the serial refinement to the
  // bit — same patterns, same refined errors, same bytes on disk.
  QueryLog log = SmallBankLog();
  auto run = [&](ThreadPool* pool) {
    LogROptions opts;
    opts.num_clusters = 5;
    opts.seed = 3;
    opts.encoder = "refined";
    opts.refine_patterns = 4;
    opts.pool = pool;
    return Compress(log, opts);
  };
  ThreadPool serial(1);
  ThreadPool wide(6);
  LogRSummary a = run(&serial);
  LogRSummary b = run(&wide);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.Model().Error(), b.Model().Error());
  std::ostringstream bytes_a, bytes_b;
  std::string error;
  ASSERT_TRUE(
      WriteSummary(log.vocabulary(), a.Model(), &bytes_a, &error))
      << error;
  ASSERT_TRUE(
      WriteSummary(log.vocabulary(), b.Model(), &bytes_b, &error))
      << error;
  EXPECT_EQ(bytes_a.str(), bytes_b.str());
}

TEST(EncoderTest, PatternEncoderParallelBitIdenticalToSerial) {
  // Pattern models do not serialize, so compare through the facade:
  // every per-component statistic and a batch of estimates must match
  // exactly between a serial and a wide-pool fit.
  QueryLog log = GroupedLog(4, 10, 91);
  auto run = [&](ThreadPool* pool) {
    LogROptions opts;
    opts.num_clusters = 3;
    opts.seed = 7;
    opts.encoder = "pattern";
    opts.pattern_budget = 4;
    opts.pool = pool;
    return Compress(log, opts);
  };
  ThreadPool serial(1);
  ThreadPool wide(6);
  LogRSummary a = run(&serial);
  LogRSummary b = run(&wide);
  EXPECT_EQ(a.assignment, b.assignment);
  EXPECT_EQ(a.Model().Error(), b.Model().Error());
  EXPECT_EQ(a.Model().TotalVerbosity(), b.Model().TotalVerbosity());
  ASSERT_EQ(a.Model().NumComponents(), b.Model().NumComponents());
  for (std::size_t c = 0; c < a.Model().NumComponents(); ++c) {
    EXPECT_EQ(a.Model().ComponentWeight(c), b.Model().ComponentWeight(c));
    EXPECT_EQ(a.Model().ComponentError(c), b.Model().ComponentError(c));
    EXPECT_EQ(a.Model().ComponentVerbosity(c),
              b.Model().ComponentVerbosity(c));
    EXPECT_EQ(a.Model().ComponentFeatures(c), b.Model().ComponentFeatures(c));
  }
  for (std::size_t i = 0; i < 10 && i < log.NumDistinct(); ++i) {
    const FeatureVec& probe = log.Vector(i);
    EXPECT_EQ(a.Model().EstimateMarginal(probe),
              b.Model().EstimateMarginal(probe))
        << i;
  }
}

TEST(EncoderTest, NullPoolEncodesLikeAnExplicitPool) {
  // EncodeRequest::pool == nullptr selects ThreadPool::Shared(); the
  // model must not depend on the pool, so a direct Encode without one
  // matches a serial-pool Encode exactly.
  QueryLog log = GroupedLog(4, 10, 29);
  std::vector<int> assignment(log.NumDistinct());
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    assignment[i] = static_cast<int>(i % 3);
  }
  ThreadPool serial(1);
  for (const char* name : {"naive", "refined", "pattern"}) {
    const Encoder* encoder = EncoderRegistry::Instance().Find(name);
    ASSERT_NE(encoder, nullptr) << name;
    EncodeRequest req;
    req.k = 3;
    req.pattern_budget = 4;
    const auto shared = encoder->Encode(log, assignment, req);
    req.pool = &serial;
    const auto serial_model = encoder->Encode(log, assignment, req);
    EXPECT_EQ(shared->Error(), serial_model->Error()) << name;
    EXPECT_EQ(shared->TotalVerbosity(), serial_model->TotalVerbosity())
        << name;
    for (std::size_t i = 0; i < 10; ++i) {
      EXPECT_EQ(shared->EstimateMarginal(log.Vector(i)),
                serial_model->EstimateMarginal(log.Vector(i)))
          << name << " probe " << i;
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

TEST(EncoderTest, MergeSummariesRejectsNonMergeableTags) {
  QueryLog log = GroupedLog(2, 8, 3);
  LogROptions opts;
  opts.num_clusters = 2;
  opts.encoder = "naive";
  LogRSummary summary = Compress(log, opts);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary part;
  ASSERT_TRUE(ReadSummary(&buffer, &part, &error)) << error;

  PersistedSummary out;
  std::vector<PersistedSummary> parts(1, part);
  parts[0].encoder = "pattern";
  EXPECT_FALSE(MergeSummaries(parts, 0, nullptr, &out, &error));
  EXPECT_NE(error.find("cannot be merged"), std::string::npos) << error;
  parts[0].encoder = "no-such-encoder";
  EXPECT_FALSE(MergeSummaries(parts, 0, nullptr, &out, &error));
  EXPECT_NE(error.find("unknown encoder"), std::string::npos) << error;
  // The untampered tag merges fine.
  parts[0].encoder = part.encoder;
  EXPECT_TRUE(MergeSummaries(parts, 0, nullptr, &out, &error))
      << error;
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

TEST(EncoderTest, V2RoundTripsEncoderTagAndPatterns) {
  QueryLog log = GroupedLog(3, 12, 59);
  LogROptions opts;
  opts.num_clusters = 2;
  opts.encoder = "refined";
  opts.refine_patterns = 3;
  LogRSummary summary = Compress(log, opts);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;
  EXPECT_EQ(loaded.encoder, "refined");
  EXPECT_STREQ(loaded.model->EncoderName(), "refined");
  EXPECT_NEAR(loaded.model->Error(), summary.Model().Error(), 1e-12);
  EXPECT_NEAR(loaded.model->BaseError(), summary.Model().BaseError(), 1e-9);
  EXPECT_EQ(loaded.model->TotalVerbosity(), summary.Model().TotalVerbosity());
  for (std::size_t c = 0; c < summary.Model().NumComponents(); ++c) {
    EXPECT_EQ(loaded.model->ComponentPatterns(c),
              summary.Model().ComponentPatterns(c))
        << c;
  }

  // A naive summary round-trips its tag too.
  opts.encoder = "naive";
  opts.refine_patterns = 0;
  LogRSummary naive = Compress(log, opts);
  std::stringstream buffer2;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), naive.Model(), &buffer2,
                           &error))
      << error;
  PersistedSummary loaded2;
  ASSERT_TRUE(ReadSummary(&buffer2, &loaded2, &error)) << error;
  EXPECT_EQ(loaded2.encoder, "naive");
  EXPECT_STREQ(loaded2.model->EncoderName(), "naive");
}

}  // namespace
}  // namespace logr
