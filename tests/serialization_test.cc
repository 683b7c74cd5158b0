#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "gtest/gtest.h"
#include "util/prng.h"

namespace logr {
namespace {

QueryLog MakeLog() {
  QueryLog log;
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "id"});
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "sms_type"});
  log.mutable_vocabulary()->Intern({FeatureClause::kFrom, "messages"});
  log.mutable_vocabulary()->Intern({FeatureClause::kWhere, "status = ?"});
  log.Add(FeatureVec({0, 2, 3}), 7);
  log.Add(FeatureVec({0, 2}), 3);
  log.Add(FeatureVec({1, 2}), 5);
  return log;
}

TEST(SerializationTest, RoundTripPreservesEstimates) {
  QueryLog log = MakeLog();
  LogROptions opts;
  opts.num_clusters = 2;
  LogRSummary summary = Compress(log, opts);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;

  EXPECT_STREQ(loaded.model->EncoderName(), summary.Model().EncoderName());
  EXPECT_EQ(loaded.model->NumComponents(), summary.Model().NumComponents());
  EXPECT_EQ(loaded.model->TotalVerbosity(),
            summary.Model().TotalVerbosity());
  EXPECT_NEAR(loaded.model->Error(), summary.Model().Error(), 1e-9);
  EXPECT_EQ(loaded.model->LogSize(), summary.Model().LogSize());
  EXPECT_EQ(loaded.vocabulary.size(), log.vocabulary().size());

  // Every pattern estimate must be identical after the round trip.
  Pcg32 rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 4; ++f) {
      if (rng.NextBernoulli(0.5)) ids.push_back(f);
    }
    FeatureVec pattern(std::move(ids));
    EXPECT_NEAR(loaded.model->EstimateCount(pattern),
                summary.Model().EstimateCount(pattern), 1e-9);
    EXPECT_NEAR(loaded.model->EstimateMarginal(pattern),
                summary.Model().EstimateMarginal(pattern), 1e-12);
  }
}

TEST(SerializationTest, RefinedSummaryWithLargeBudgetRoundTrips) {
  // Regression for the ROADMAP known issue: the reader's former
  // pattern-count bound (n_features^2 + 1) rejected refined summaries
  // WriteSummary itself produced when a small-feature log was
  // compressed with a large refine_patterns budget. The bound is now
  // derived from the miner's retainable-pattern limit.
  Pcg32 rng(19);
  QueryLog log;
  // 6 features: C(6,2)+C(6,3)+C(6,4) = 50 distinct minable patterns,
  // well past the old bound of 37.
  for (int i = 0; i < 60; ++i) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 6; ++f) {
      if (rng.NextBernoulli(0.5)) ids.push_back(f);
    }
    if (ids.empty()) ids.push_back(0);
    log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(4));
  }
  for (FeatureId f = 0; f < 6; ++f) {
    log.mutable_vocabulary()->Intern(
        {FeatureClause::kWhere, "col" + std::to_string(f) + " = ?"});
  }
  LogROptions opts;
  opts.num_clusters = 1;
  opts.encoder = "refined";
  opts.refine_patterns = 64;  // far beyond what 6 features can yield
  LogRSummary summary = Compress(log, opts);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  EXPECT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;
}

TEST(SerializationTest, RejectsPatternCountPastMinerLimit) {
  // Counts no miner output can reach are still rejected.
  std::string text =
      "logr-summary v2\n"
      "encoder refined\n"
      "features 2\n"
      "f 0 a\nf 0 b\n"
      "clusters 1\n"
      "cluster 1.0 4 0.5 1\n"
      "m 0 0.5\n"
      "patterns 0 2 0.1\n"  // 2 features allow exactly 1 multi-pattern
      "p 2 0 1\np 2 0 1\n";
  std::istringstream in(text);
  PersistedSummary loaded;
  std::string error;
  EXPECT_FALSE(ReadSummary(&in, &loaded, &error));
  EXPECT_NE(error.find("implausible pattern count"), std::string::npos)
      << error;
}

TEST(SerializationTest, FeatureTextWithSpacesSurvives) {
  QueryLog log = MakeLog();
  LogRSummary summary = Compress(log, LogROptions());
  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;
  Feature f{FeatureClause::kWhere, "status = ?"};
  EXPECT_NE(loaded.vocabulary.Find(f), Vocabulary::kNotFound);
}

TEST(SerializationTest, RejectsBadHeader) {
  std::stringstream buffer("not-a-summary\n");
  PersistedSummary loaded;
  std::string error;
  EXPECT_FALSE(ReadSummary(&buffer, &loaded, &error));
  EXPECT_FALSE(error.empty());
}

TEST(SerializationTest, RejectsTruncatedInput) {
  QueryLog log = MakeLog();
  LogRSummary summary = Compress(log, LogROptions());
  std::stringstream buffer;
  WriteSummary(log.vocabulary(), *summary.Model().AsNaiveMixture(),
               &buffer);
  std::string text = buffer.str();
  for (std::size_t cut : {text.size() / 4, text.size() / 2}) {
    std::stringstream truncated(text.substr(0, cut));
    PersistedSummary loaded;
    std::string error;
    EXPECT_FALSE(ReadSummary(&truncated, &loaded, &error)) << cut;
  }
}

TEST(SerializationTest, RejectsOutOfRangeMarginal) {
  std::stringstream buffer(
      "logr-summary v1\n"
      "features 1\n"
      "f 0 a\n"
      "clusters 1\n"
      "cluster 1.0 10 0.0 1\n"
      "m 0 1.5\n");
  PersistedSummary loaded;
  std::string error;
  EXPECT_FALSE(ReadSummary(&buffer, &loaded, &error));
}

TEST(SerializationTest, RejectsUnknownFeatureReference) {
  std::stringstream buffer(
      "logr-summary v1\n"
      "features 1\n"
      "f 0 a\n"
      "clusters 1\n"
      "cluster 1.0 10 0.0 1\n"
      "m 7 0.5\n");
  PersistedSummary loaded;
  std::string error;
  EXPECT_FALSE(ReadSummary(&buffer, &loaded, &error));
}

TEST(SerializationTest, RejectsNaNAndInfiniteValues) {
  // NaN passes a naive `p < 0 || p > 1` range check; the reader must
  // reject it explicitly, in marginals and in the cluster header alike.
  const char* cases[] = {
      // NaN marginal.
      "logr-summary v1\nfeatures 1\nf 0 a\nclusters 1\n"
      "cluster 1.0 10 0.0 1\nm 0 nan\n",
      // NaN weight.
      "logr-summary v1\nfeatures 1\nf 0 a\nclusters 1\n"
      "cluster nan 10 0.0 1\nm 0 0.5\n",
      // Infinite empirical entropy.
      "logr-summary v1\nfeatures 1\nf 0 a\nclusters 1\n"
      "cluster 1.0 10 inf 1\nm 0 0.5\n",
      // Negative empirical entropy.
      "logr-summary v1\nfeatures 1\nf 0 a\nclusters 1\n"
      "cluster 1.0 10 -0.5 1\nm 0 0.5\n",
      // Weight above 1.
      "logr-summary v1\nfeatures 1\nf 0 a\nclusters 1\n"
      "cluster 2.5 10 0.0 1\nm 0 0.5\n",
  };
  for (const char* text : cases) {
    std::stringstream buffer(text);
    PersistedSummary loaded;
    std::string error;
    EXPECT_FALSE(ReadSummary(&buffer, &loaded, &error)) << text;
    EXPECT_FALSE(error.empty()) << text;
  }
}

TEST(SerializationTest, RejectsDuplicateFeatureIdInCluster) {
  std::stringstream buffer(
      "logr-summary v1\n"
      "features 2\n"
      "f 0 a\n"
      "f 0 b\n"
      "clusters 1\n"
      "cluster 1.0 10 0.0 2\n"
      "m 1 0.5\n"
      "m 1 0.25\n");
  PersistedSummary loaded;
  std::string error;
  EXPECT_FALSE(ReadSummary(&buffer, &loaded, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos) << error;
}

TEST(SerializationTest, RejectsMoreMarginalsThanFeatures) {
  std::stringstream buffer(
      "logr-summary v1\n"
      "features 1\n"
      "f 0 a\n"
      "clusters 1\n"
      "cluster 1.0 10 0.0 99\n"
      "m 0 0.5\n");
  PersistedSummary loaded;
  std::string error;
  EXPECT_FALSE(ReadSummary(&buffer, &loaded, &error));
}

TEST(SerializationTest, FuzzedInputNeverCrashesTheReader) {
  // Mutate a valid summary at random positions: the reader must always
  // return (accept or reject), never crash or hang.
  QueryLog log = MakeLog();
  LogROptions opts;
  opts.num_clusters = 2;
  LogRSummary summary = Compress(log, opts);
  std::stringstream buffer;
  std::string write_error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &write_error))
      << write_error;
  const std::string valid = buffer.str();

  Pcg32 rng(33);
  const char charset[] = "0123456789 .-naif\nmcluster";
  for (int trial = 0; trial < 300; ++trial) {
    std::string mutated = valid;
    const std::size_t edits = 1 + rng.NextBounded(8);
    for (std::size_t e = 0; e < edits; ++e) {
      std::size_t pos = rng.NextBounded(
          static_cast<std::uint32_t>(mutated.size()));
      mutated[pos] = charset[rng.NextBounded(sizeof(charset) - 1)];
    }
    std::stringstream in(mutated);
    PersistedSummary loaded;
    std::string error;
    ReadSummary(&in, &loaded, &error);  // outcome free, crash forbidden
  }
}

TEST(SerializationTest, CommentsAndBlankLinesIgnored) {
  QueryLog log = MakeLog();
  LogRSummary summary = Compress(log, LogROptions());
  std::stringstream buffer;
  buffer << "# produced by test\n";
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  EXPECT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;
}

TEST(SerializationTest, FileRoundTrip) {
  QueryLog log = MakeLog();
  LogRSummary summary = Compress(log, LogROptions());
  std::string path = "/tmp/logr_serialization_test.logr";
  std::string error;
  ASSERT_TRUE(
      WriteSummaryFile(path, log.vocabulary(), summary.Model(), &error))
      << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummaryFile(path, &loaded, &error)) << error;
  EXPECT_NEAR(loaded.model->Error(), summary.Model().Error(), 1e-9);
  std::remove(path.c_str());
}

TEST(SerializationTest, FileWritesArePublishedAtomically) {
  // WriteSummaryFile stages into a pid-suffixed temp and renames, so no
  // staging file survives a successful publish and a failing target
  // leaves nothing behind.
  QueryLog log = MakeLog();
  LogRSummary summary = Compress(log, LogROptions());
  const std::string path = "/tmp/logr_atomic_test.logr";
  const std::string staged =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::string error;
  ASSERT_TRUE(
      WriteSummaryFile(path, log.vocabulary(), summary.Model(), &error))
      << error;
  EXPECT_FALSE(std::ifstream(staged).good()) << "staging file leaked";
  EXPECT_TRUE(std::ifstream(path).good());
  std::remove(path.c_str());

  // Unwritable target directory: a clean failure, no partial output.
  EXPECT_FALSE(WriteSummaryFile("/nonexistent-dir/x.logr",
                                log.vocabulary(), summary.Model(), &error));
  EXPECT_FALSE(error.empty());
}

QueryLog PatternLog() {
  Pcg32 rng(23);
  QueryLog log;
  for (FeatureId f = 0; f < 10; ++f) {
    log.mutable_vocabulary()->Intern(
        {FeatureClause::kWhere, "p" + std::to_string(f) + " = ?"});
  }
  for (int i = 0; i < 40; ++i) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 10; ++f) {
      if (rng.NextBernoulli(f < 5 ? 0.6 : 0.2)) ids.push_back(f);
    }
    if (ids.empty()) ids.push_back(0);
    log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(6));
  }
  return log;
}

TEST(SerializationTest, PatternSummaryRoundTripIsBitExact) {
  // The headline bugfix: "pattern" models now persist (summary v3). The
  // reader refits each component's max-ent lattice by the same
  // deterministic iterative scaling the encoder ran, over the stored
  // (patterns, measured marginals, universe width) — so every estimate
  // is EXPECT_EQ-identical, not merely close, and a second write of the
  // loaded model is byte-identical to the first.
  QueryLog log = PatternLog();
  LogROptions opts;
  opts.num_clusters = 2;
  opts.encoder = "pattern";
  opts.pattern_budget = 6;
  LogRSummary summary = Compress(log, opts);

  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;

  EXPECT_EQ(loaded.encoder, "pattern");
  EXPECT_STREQ(loaded.model->EncoderName(), "pattern");
  EXPECT_EQ(loaded.model->NumComponents(), summary.Model().NumComponents());
  EXPECT_EQ(loaded.model->LogSize(), summary.Model().LogSize());
  EXPECT_EQ(loaded.model->TotalVerbosity(),
            summary.Model().TotalVerbosity());
  EXPECT_EQ(loaded.model->Error(), summary.Model().Error());
  for (std::size_t c = 0; c < loaded.model->NumComponents(); ++c) {
    EXPECT_EQ(loaded.model->ComponentWeight(c),
              summary.Model().ComponentWeight(c));
    EXPECT_EQ(loaded.model->ComponentLogSize(c),
              summary.Model().ComponentLogSize(c));
    EXPECT_EQ(loaded.model->ComponentError(c),
              summary.Model().ComponentError(c));
    EXPECT_EQ(loaded.model->ComponentPatterns(c),
              summary.Model().ComponentPatterns(c));
  }
  Pcg32 rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<FeatureId> ids;
    for (FeatureId f = 0; f < 10; ++f) {
      if (rng.NextBernoulli(0.3)) ids.push_back(f);
    }
    FeatureVec pattern(std::move(ids));
    EXPECT_EQ(loaded.model->EstimateMarginal(pattern),
              summary.Model().EstimateMarginal(pattern));
    EXPECT_EQ(loaded.model->EstimateCount(pattern),
              summary.Model().EstimateCount(pattern));
  }

  // Fixed point: writing the loaded model reproduces the bytes.
  std::stringstream again;
  ASSERT_TRUE(WriteSummary(loaded.vocabulary, *loaded.model, &again,
                           &error))
      << error;
  std::stringstream first;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &first,
                           &error))
      << error;
  EXPECT_EQ(again.str(), first.str());
}

TEST(SerializationTest, V3RequiresPatternEncoderAndV2RejectsPattern) {
  {
    std::istringstream in(
        "logr-summary v3\n"
        "encoder naive\n"
        "features 1\nf 0 a\nclusters 0\n");
    PersistedSummary loaded;
    std::string error;
    EXPECT_FALSE(ReadSummary(&in, &loaded, &error));
    EXPECT_NE(error.find("requires encoder pattern"), std::string::npos)
        << error;
  }
  {
    std::istringstream in(
        "logr-summary v2\n"
        "encoder pattern\n"
        "features 1\nf 0 a\nclusters 0\n");
    PersistedSummary loaded;
    std::string error;
    EXPECT_FALSE(ReadSummary(&in, &loaded, &error));
    EXPECT_NE(error.find("unsupported encoder tag"), std::string::npos)
        << error;
  }
}

TEST(SerializationTest, V3ValidationRejectsHostilePayloads) {
  const std::string header =
      "logr-summary v3\n"
      "encoder pattern\n"
      "features 3\nf 0 a\nf 0 b\nf 0 c\n"
      "clusters 1\n";
  struct Case {
    const char* body;
    const char* expect;
  };
  const Case cases[] = {
      // More patterns than the encoder can ever produce: a hostile file
      // must not get to demand an exponential lattice refit.
      {"pcluster 1.0 4 0.5 3 13\n", "implausible pattern count"},
      {"pcluster 2.0 4 0.5 3 1\npm 0.5 1 0\n", "weight outside"},
      {"pcluster 1.0 4 -1 3 1\npm 0.5 1 0\n", "entropy not finite"},
      // iostreams refuse "nan" at the parse level already.
      {"pcluster 1.0 4 nan 3 1\npm 0.5 1 0\n", "malformed pcluster"},
      {"pcluster 1.0 4 0.5 4 1\npm 0.5 1 0\n", "exceeds the codebook"},
      {"pcluster 1.0 4 0.5 3 1\npm 1.5 1 0\n", "out of [0,1]"},
      {"pcluster 1.0 4 0.5 3 1\npm 0.5 1 7\n", "unknown feature id"},
      {"pcluster 1.0 4 0.5 3 1\npm 0.5 2 0 0\n", "duplicate id"},
      {"pcluster 1.0 4 0.5 3 2\npm 0.5 1 0\npm 0.5 1 0\n",
       "duplicate pattern"},
      {"pcluster 1.0 4 0.5 3 1\npm 0.5 0\n", "malformed pattern-marginal"},
      {"pcluster 1.0 4 0.5 3 1\n", "truncated pattern list"},
      {"pcluster 1.0 4 0.5 3 1\npm 0.5 1 0\nextra trailer\n",
       "unexpected trailer"},
  };
  for (const Case& c : cases) {
    std::istringstream in(header + c.body);
    PersistedSummary loaded;
    std::string error;
    EXPECT_FALSE(ReadSummary(&in, &loaded, &error)) << c.body;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << c.body << " -> " << error;
  }
}

TEST(SerializationTest, PatternSummariesRefuseToMerge) {
  QueryLog log = PatternLog();
  LogROptions opts;
  opts.num_clusters = 2;
  opts.encoder = "pattern";
  LogRSummary summary = Compress(log, opts);
  std::stringstream buffer;
  std::string error;
  ASSERT_TRUE(WriteSummary(log.vocabulary(), summary.Model(), &buffer,
                           &error))
      << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummary(&buffer, &loaded, &error)) << error;
  std::vector<PersistedSummary> parts;
  parts.push_back(std::move(loaded));
  PersistedSummary merged;
  EXPECT_FALSE(MergeSummaries(parts, 0, nullptr, &merged, &error));
  EXPECT_NE(error.find("cannot be merged"), std::string::npos) << error;
}

}  // namespace
}  // namespace logr
