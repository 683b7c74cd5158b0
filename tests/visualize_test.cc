#include "core/logr_compressor.h"
#include "core/visualize.h"
#include "gtest/gtest.h"

namespace logr {
namespace {

QueryLog MakeLog() {
  QueryLog log;
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "id"});
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "sms_type"});
  log.mutable_vocabulary()->Intern({FeatureClause::kFrom, "messages"});
  log.mutable_vocabulary()->Intern({FeatureClause::kWhere, "status = ?"});
  log.Add(FeatureVec({0, 2, 3}), 50);
  log.Add(FeatureVec({0, 2}), 50);
  log.Add(FeatureVec({1, 2}), 10);
  return log;
}

/// The naive model of `log` under `assignment` (k components).
NaiveMixtureModel Model(const QueryLog& log,
                        const std::vector<int>& assignment, std::size_t k) {
  return NaiveMixtureModel(
      NaiveMixtureEncoding::FromPartition(log, assignment, k));
}

TEST(VisualizeTest, GlyphThresholds) {
  EXPECT_EQ(MarginalGlyph(1.0), '#');
  EXPECT_EQ(MarginalGlyph(0.96), '#');
  EXPECT_EQ(MarginalGlyph(0.95), '#');
  EXPECT_EQ(MarginalGlyph(0.6), '+');
  EXPECT_EQ(MarginalGlyph(0.5), '+');
  EXPECT_EQ(MarginalGlyph(0.2), '.');
}

TEST(VisualizeTest, RenderContainsClausesAndFeatures) {
  QueryLog log = MakeLog();
  std::string out =
      RenderCluster(log.vocabulary(), Model(log, {0, 0, 0}, 1), 0);
  EXPECT_NE(out.find("SELECT"), std::string::npos);
  EXPECT_NE(out.find("FROM"), std::string::npos);
  EXPECT_NE(out.find("WHERE"), std::string::npos);
  EXPECT_NE(out.find("messages"), std::string::npos);
  EXPECT_NE(out.find("# messages"), std::string::npos);  // marginal 1.0
  EXPECT_NE(out.find("status = ?"), std::string::npos);
}

TEST(VisualizeTest, OmitsLowMarginalFeatures) {
  QueryLog log = MakeLog();
  std::string out =
      RenderCluster(log.vocabulary(), Model(log, {0, 0, 0}, 1), 0);
  // sms_type has marginal 10/110 < 0.15 -> omitted; id (100/110) stays.
  EXPECT_EQ(out.find("sms_type"), std::string::npos);
  EXPECT_NE(out.find("+ id"), std::string::npos);
}

TEST(VisualizeTest, DiffuseClusterGetsSubclusterNote) {
  QueryLog log;
  // Every feature rare: all marginals below the default 0.15 floor.
  for (FeatureId f = 0; f < 20; ++f) {
    log.Add(FeatureVec({f}), 1);
  }
  // No vocabulary entries exist; construct one matching ids.
  Vocabulary vocab;
  for (FeatureId f = 0; f < 20; ++f) {
    vocab.Intern({FeatureClause::kSelect, "col" + std::to_string(f)});
  }
  std::string out =
      RenderCluster(vocab, Model(log, std::vector<int>(20, 0), 1), 0);
  EXPECT_NE(out.find("sub-clustering"), std::string::npos);
}

TEST(VisualizeTest, MixtureOrderedByWeight) {
  QueryLog log = MakeLog();
  std::string out = RenderMixture(log.vocabulary(), Model(log, {0, 0, 1}, 2));
  std::size_t first = out.find("weight 90.9%");
  std::size_t second = out.find("weight 9.1%");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST(VisualizeTest, MaxPerClauseTruncates) {
  QueryLog log;
  Vocabulary* vocab = log.mutable_vocabulary();
  std::vector<FeatureId> ids;
  for (int i = 0; i < 12; ++i) {
    ids.push_back(vocab->Intern(
        {FeatureClause::kSelect, "col" + std::to_string(i)}));
  }
  log.Add(FeatureVec(ids), 10);
  std::string out = RenderCluster(log.vocabulary(), Model(log, {0}, 1), 0);
  // 8 features per clause are listed; the other 4 are counted.
  EXPECT_NE(out.find("... 4 more"), std::string::npos);
}

}  // namespace
}  // namespace logr
