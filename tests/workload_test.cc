#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "gtest/gtest.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "workload/extractor.h"
#include "workload/feature_vec.h"
#include "workload/loader.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {
namespace {

sql::StatementPtr ParseAndRegularize(std::string_view s) {
  sql::ParseResult r = sql::Parse(s);
  EXPECT_TRUE(r.ok()) << s;
  sql::RegularizeInfo info;
  return sql::Regularize(*r.statement, {}, &info);
}

TEST(FeatureTest, ToStringMatchesPaperNotation) {
  Feature f{FeatureClause::kWhere, "status = ?"};
  EXPECT_EQ(f.ToString(), "<status = ?, WHERE>");
}

TEST(VocabularyTest, InternIsIdempotent) {
  Vocabulary v;
  Feature f{FeatureClause::kSelect, "a"};
  FeatureId id = v.Intern(f);
  EXPECT_EQ(v.Intern(f), id);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v.Get(id).text, "a");
}

TEST(VocabularyTest, ClauseDistinguishesFeatures) {
  Vocabulary v;
  FeatureId a = v.Intern({FeatureClause::kSelect, "x"});
  FeatureId b = v.Intern({FeatureClause::kWhere, "x"});
  EXPECT_NE(a, b);
}

TEST(VocabularyTest, FindWithoutIntern) {
  Vocabulary v;
  EXPECT_EQ(v.Find({FeatureClause::kFrom, "t"}), Vocabulary::kNotFound);
  v.Intern({FeatureClause::kFrom, "t"});
  EXPECT_NE(v.Find({FeatureClause::kFrom, "t"}), Vocabulary::kNotFound);
}

TEST(FeatureVecTest, ConstructorSortsAndDedupes) {
  FeatureVec v({5, 1, 3, 1, 5});
  EXPECT_EQ(v.ids, (std::vector<FeatureId>{1, 3, 5}));
}

TEST(FeatureVecTest, Containment) {
  FeatureVec q({1, 3, 5, 9});
  EXPECT_TRUE(q.ContainsAll(FeatureVec({3, 9})));
  EXPECT_TRUE(q.ContainsAll(FeatureVec()));
  EXPECT_FALSE(q.ContainsAll(FeatureVec({3, 4})));
  EXPECT_TRUE(q.Contains(5));
  EXPECT_FALSE(q.Contains(4));
}

TEST(FeatureVecTest, SpanContainment) {
  // The sorted-span form every log type's containment test calls.
  const std::vector<FeatureId> ids = {2, 5, 9};
  EXPECT_TRUE(ContainsAll(ids.data(), ids.size(), FeatureVec()));
  EXPECT_TRUE(ContainsAll(ids.data(), 0, FeatureVec()));
  EXPECT_FALSE(ContainsAll(ids.data(), 0, FeatureVec({2})));
  // A pattern ending at the span's last id, and one past it.
  EXPECT_TRUE(ContainsAll(ids.data(), ids.size(), FeatureVec({9})));
  EXPECT_TRUE(ContainsAll(ids.data(), ids.size(), FeatureVec({5, 9})));
  EXPECT_FALSE(ContainsAll(ids.data(), ids.size(), FeatureVec({10})));
  EXPECT_FALSE(ContainsAll(ids.data(), ids.size(), FeatureVec({9, 10})));
  // The span's length bounds the test, not the storage behind it.
  EXPECT_FALSE(ContainsAll(ids.data(), ids.size() - 1, FeatureVec({9})));
  EXPECT_FALSE(ContainsAll(ids.data(), ids.size(), FeatureVec({3})));
}

TEST(FeatureVecTest, SetOperations) {
  FeatureVec a({1, 2, 3});
  FeatureVec b({2, 3, 4});
  EXPECT_EQ(FeatureVec::Union(a, b).ids, (std::vector<FeatureId>{1, 2, 3, 4}));
  EXPECT_EQ(FeatureVec::Intersection(a, b).ids,
            (std::vector<FeatureId>{2, 3}));
  EXPECT_EQ(a.IntersectionSize(b), 2u);
}

TEST(FeatureVecTest, DenseRoundTrip) {
  FeatureVec v({0, 3});
  std::vector<double> dense = v.ToDense(5);
  EXPECT_EQ(dense, (std::vector<double>{1, 0, 0, 1, 0}));
}

// Paper Example 1: the exact feature set of the running-example query.
TEST(ExtractorTest, PaperExampleOne) {
  auto stmt = ParseAndRegularize(
      "SELECT _id , sms_type , _time FROM Messages "
      "WHERE status =? AND transport_type =?");
  std::vector<Feature> feats = ListFeatures(*stmt, {});
  std::set<std::string> got;
  for (const Feature& f : feats) got.insert(f.ToString());
  std::set<std::string> expected = {
      "<_id, SELECT>",          "<sms_type, SELECT>",
      "<_time, SELECT>",        "<messages, FROM>",
      "<status = ?, WHERE>",    "<transport_type = ?, WHERE>",
  };
  EXPECT_EQ(got, expected);
}

TEST(ExtractorTest, JoinContributesTablesAndOnAtoms) {
  auto stmt = ParseAndRegularize(
      "SELECT a FROM t1 JOIN t2 ON t1.id = t2.id WHERE x = 1");
  std::vector<Feature> feats = ListFeatures(*stmt, {});
  std::set<std::string> got;
  for (const Feature& f : feats) got.insert(f.ToString());
  EXPECT_TRUE(got.count("<t1, FROM>"));
  EXPECT_TRUE(got.count("<t2, FROM>"));
  EXPECT_TRUE(got.count("<t1.id = t2.id, WHERE>"));
  EXPECT_TRUE(got.count("<x = ?, WHERE>"));
}

TEST(ExtractorTest, SubqueryInFromIsOneFeature) {
  auto stmt = ParseAndRegularize("SELECT a FROM (SELECT b FROM u) d");
  std::vector<Feature> feats = ListFeatures(*stmt, {});
  int from_features = 0;
  for (const Feature& f : feats) {
    if (f.clause == FeatureClause::kFrom) ++from_features;
  }
  EXPECT_EQ(from_features, 1);
}

TEST(ExtractorTest, UnionBranchesContributeUnionOfFeatures) {
  auto stmt = ParseAndRegularize(
      "SELECT a FROM t WHERE p = 1 OR q = 2");  // becomes a UNION
  std::vector<Feature> feats = ListFeatures(*stmt, {});
  std::set<std::string> got;
  for (const Feature& f : feats) got.insert(f.ToString());
  EXPECT_TRUE(got.count("<p = ?, WHERE>"));
  EXPECT_TRUE(got.count("<q = ?, WHERE>"));
}

TEST(ExtractorTest, ExtendedClausesCaptured) {
  auto stmt = ParseAndRegularize(
      "SELECT a FROM t GROUP BY g ORDER BY o DESC LIMIT 10");
  ExtractOptions opts;
  opts.extended_clauses = true;
  std::vector<Feature> feats = ListFeatures(*stmt, opts);
  std::set<std::string> got;
  for (const Feature& f : feats) got.insert(f.ToString());
  EXPECT_TRUE(got.count("<g, GROUPBY>"));
  EXPECT_TRUE(got.count("<desc o, ORDERBY>"));
  EXPECT_TRUE(got.count("<limit 10, LIMIT>"));
}

TEST(ExtractorTest, FrozenVocabularyDropsUnknown) {
  Vocabulary vocab;
  auto stmt1 = ParseAndRegularize("SELECT a FROM t");
  ExtractFeatures(*stmt1, {}, &vocab);
  std::size_t size_before = vocab.size();
  auto stmt2 = ParseAndRegularize("SELECT b FROM t");
  FeatureVec v = ExtractFeaturesFrozen(*stmt2, {}, vocab);
  EXPECT_EQ(vocab.size(), size_before);
  // Only <t, FROM> is known.
  EXPECT_EQ(v.size(), 1u);
}

TEST(QueryLogTest, AddMergesDuplicates) {
  QueryLog log;
  log.Add(FeatureVec({1, 2}), 3);
  log.Add(FeatureVec({1, 2}), 2);
  log.Add(FeatureVec({3}), 1);
  EXPECT_EQ(log.NumDistinct(), 2u);
  EXPECT_EQ(log.TotalQueries(), 6u);
  EXPECT_EQ(log.MaxMultiplicity(), 5u);
}

TEST(QueryLogTest, AddWithZeroCountIsANoOp) {
  QueryLog log;
  log.Add(FeatureVec({1, 2}), 3);
  // Zero occurrences of a NEW vector: no distinct entry may appear.
  log.Add(FeatureVec({7}), 0);
  // Zero occurrences of an existing vector: nothing accumulates.
  log.Add(FeatureVec({1, 2}), 0);
  EXPECT_EQ(log.NumDistinct(), 1u);
  EXPECT_EQ(log.TotalQueries(), 3u);
  // The skipped vector's ids must not widen the feature universe.
  EXPECT_EQ(log.NumFeatures(), 3u);
}

TEST(QueryLogDeathTest, AddRejectsTotalOverflow) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  QueryLog log;
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  log.Add(FeatureVec({1}), max - 1);
  log.Add(FeatureVec({2}), 1);  // exactly UINT64_MAX: still fits
  EXPECT_EQ(log.TotalQueries(), max);
  EXPECT_DEATH(log.Add(FeatureVec({2}), 1), "multiplicity total overflows");
}

TEST(LoaderTest, AddSqlWithZeroCountRecordsNothing) {
  LogLoader::Options opts;
  opts.track_with_constant_stats = true;
  LogLoader loader(opts);
  loader.AddSql("SELECT a FROM t WHERE x = 5", 2);
  // A zero-count record carries no information: not a query, not a
  // distinct template, not even a funnel classification.
  loader.AddSql("SELECT b FROM u WHERE y = 1", 0);
  loader.AddSql("UPDATE t SET a = 1", 0);
  loader.AddSql("@@garbage@@", 0);
  DatasetSummary s = loader.Summary("test");
  EXPECT_EQ(s.num_queries, 2u);
  EXPECT_EQ(s.num_non_select, 0u);
  EXPECT_EQ(s.num_parse_errors, 0u);
  EXPECT_EQ(s.num_distinct, 1u);
  EXPECT_EQ(s.num_distinct_no_const, 1u);
  EXPECT_EQ(loader.log().NumDistinct(), 1u);
  EXPECT_EQ(loader.log().TotalQueries(), 2u);
}

TEST(QueryLogTest, FromColumnsMatchesIncrementalAdds) {
  Vocabulary vocab;
  FeatureId a = vocab.Intern({FeatureClause::kSelect, "a"});
  FeatureId t = vocab.Intern({FeatureClause::kFrom, "t"});
  FeatureId w = vocab.Intern({FeatureClause::kWhere, "x = ?"});
  QueryLog incremental;
  *incremental.mutable_vocabulary() = vocab;
  incremental.Add(FeatureVec({a, t, w}), 5, "SELECT a FROM t WHERE x = 1");
  incremental.Add(FeatureVec({a, t}), 2, "SELECT a FROM t");

  QueryLog bulk = QueryLog::FromColumns(
      vocab, {FeatureVec({a, t, w}), FeatureVec({a, t})}, {5, 2},
      {"SELECT a FROM t WHERE x = 1", "SELECT a FROM t"});
  EXPECT_EQ(bulk.NumDistinct(), incremental.NumDistinct());
  EXPECT_EQ(bulk.TotalQueries(), incremental.TotalQueries());
  EXPECT_EQ(bulk.NumFeatures(), incremental.NumFeatures());
  for (std::size_t i = 0; i < bulk.NumDistinct(); ++i) {
    EXPECT_EQ(bulk.Vector(i), incremental.Vector(i));
    EXPECT_EQ(bulk.Multiplicity(i), incremental.Multiplicity(i));
    EXPECT_EQ(bulk.SampleSql(i), incremental.SampleSql(i));
  }
  // The bulk path keeps the dedup index live.
  bulk.Add(FeatureVec({a, t}), 1);
  EXPECT_EQ(bulk.NumDistinct(), 2u);
  EXPECT_EQ(bulk.TotalQueries(), 8u);
}

// Paper Example 2: four-query log; q1 = q3 has probability 0.5.
TEST(QueryLogTest, PaperExampleTwoProbabilities) {
  QueryLog log;
  FeatureVec q1({0, 3, 5});  // _id, status=?, Messages
  FeatureVec q2({1, 3, 4, 5});
  FeatureVec q4({1, 2, 4, 5});
  log.Add(q1, 1);
  log.Add(q2, 1);
  log.Add(q1, 1);  // q3 == q1
  log.Add(q4, 1);
  EXPECT_EQ(log.NumDistinct(), 3u);
  // p(q1) = 2/4
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    if (log.Vector(i) == q1) {
      EXPECT_DOUBLE_EQ(log.Probability(i), 0.5);
    }
  }
}

TEST(QueryLogTest, CountContainingAndMarginal) {
  QueryLog log;
  log.Add(FeatureVec({1, 2, 3}), 2);
  log.Add(FeatureVec({1, 4}), 1);
  log.Add(FeatureVec({2, 3}), 1);
  EXPECT_EQ(log.CountContaining(FeatureVec({1})), 3u);
  EXPECT_EQ(log.CountContaining(FeatureVec({2, 3})), 3u);
  EXPECT_EQ(log.CountContaining(FeatureVec({1, 2, 3})), 2u);
  EXPECT_DOUBLE_EQ(log.Marginal(FeatureVec({1})), 0.75);
  // Empty pattern is contained in everything.
  EXPECT_DOUBLE_EQ(log.Marginal(FeatureVec()), 1.0);
}

TEST(QueryLogTest, EmpiricalEntropy) {
  QueryLog log;
  log.Add(FeatureVec({1}), 1);
  log.Add(FeatureVec({2}), 1);
  EXPECT_NEAR(log.EmpiricalEntropy(), std::log(2.0), 1e-12);
  QueryLog single;
  single.Add(FeatureVec({1}), 10);
  EXPECT_DOUBLE_EQ(single.EmpiricalEntropy(), 0.0);
}

TEST(QueryLogTest, MaterializeSubsetPreservesCounts) {
  QueryLog log;
  log.Add(FeatureVec({1}), 5);
  log.Add(FeatureVec({2}), 3);
  log.Add(FeatureVec({3}), 2);
  QueryLog sub = LogView(log).MaterializeSubset({0, 2});
  EXPECT_EQ(sub.NumDistinct(), 2u);
  EXPECT_EQ(sub.TotalQueries(), 7u);
}

TEST(LoaderTest, FunnelClassifiesInputs) {
  LogLoader::Options opts;
  opts.track_with_constant_stats = true;
  LogLoader loader(opts);
  loader.AddSql("SELECT a FROM t WHERE x = 5", 10);
  loader.AddSql("SELECT a FROM t WHERE x = 9", 5);
  loader.AddSql("EXEC sp_thing 42", 3);
  loader.AddSql("UPDATE t SET a = 1", 2);
  loader.AddSql("@@garbage@@", 1);
  DatasetSummary s = loader.Summary("test");
  EXPECT_EQ(s.num_queries, 15u);
  EXPECT_EQ(s.num_non_select, 5u);
  EXPECT_EQ(s.num_parse_errors, 1u);
  // Two raw strings with different constants collapse without them.
  EXPECT_EQ(s.num_distinct, 2u);
  EXPECT_EQ(s.num_distinct_no_const, 1u);
  EXPECT_EQ(s.num_distinct_conjunctive, 1u);
  EXPECT_EQ(s.num_distinct_rewritable, 1u);
  EXPECT_EQ(s.max_multiplicity, 15u);
}

TEST(LoaderTest, FeatureCountsWithAndWithoutConstants) {
  LogLoader::Options opts;
  opts.track_with_constant_stats = true;
  LogLoader loader(opts);
  loader.AddSql("SELECT a FROM t WHERE x = 5");
  loader.AddSql("SELECT a FROM t WHERE x = 6");
  DatasetSummary s = loader.Summary("test");
  // w/o const: <a,SELECT>, <t,FROM>, <x = ?,WHERE> = 3
  EXPECT_EQ(s.num_features_no_const, 3u);
  // with const: x = 5 and x = 6 are distinct WHERE features = 4 total
  EXPECT_EQ(s.num_features, 4u);
  EXPECT_NEAR(s.avg_features_per_query, 3.0, 1e-12);
}

TEST(LoaderTest, AvgFeaturesWeightedByMultiplicity) {
  LogLoader loader;
  loader.AddSql("SELECT a FROM t", 3);                      // 2 features
  loader.AddSql("SELECT a, b FROM t WHERE x = ? AND y = ?", 1);  // 5
  DatasetSummary s = loader.Summary("test");
  EXPECT_NEAR(s.avg_features_per_query, (3 * 2 + 1 * 5) / 4.0, 1e-12);
}

}  // namespace
}  // namespace logr
