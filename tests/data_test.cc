#include <set>
#include <vector>

#include "data/bank.h"
#include "data/income.h"
#include "data/mushroom.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "data/table1.h"
#include "gtest/gtest.h"

namespace logr {
namespace {

// Small-scale generator options keep these tests fast; the Table 1 / 2
// shape assertions run on proportionally scaled targets.
PocketDataOptions SmallPocket() {
  PocketDataOptions o;
  o.num_distinct = 120;
  o.total_queries = 50000;
  return o;
}

BankLogOptions SmallBank() {
  BankLogOptions o;
  o.num_templates = 150;
  o.total_queries = 80000;
  o.noise_entries = 40;
  return o;
}

TEST(PocketDataTest, DeterministicForSeed) {
  std::vector<LogEntry> a = GeneratePocketDataLog(SmallPocket());
  std::vector<LogEntry> b = GeneratePocketDataLog(SmallPocket());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].sql, b[i].sql);
    EXPECT_EQ(a[i].count, b[i].count);
  }
}

TEST(PocketDataTest, HitsDistinctAndTotalTargets) {
  PocketDataOptions o = SmallPocket();
  std::vector<LogEntry> entries = GeneratePocketDataLog(o);
  EXPECT_EQ(entries.size(), o.num_distinct);
  std::uint64_t total = 0;
  for (const auto& e : entries) total += e.count;
  EXPECT_EQ(total, o.total_queries);
}

TEST(PocketDataTest, AllEntriesParseAsSelects) {
  LogLoader loader = LoadEntries(GeneratePocketDataLog(SmallPocket()));
  DatasetSummary s = loader.Summary("pocket");
  EXPECT_EQ(s.num_parse_errors, 0u);
  EXPECT_EQ(s.num_non_select, 0u);
  EXPECT_GT(s.num_queries, 0u);
}

TEST(PocketDataTest, MachineWorkloadShape) {
  // PocketData uses JDBC parameters everywhere: with-constants and
  // constant-free distinct counts coincide (605 = 605 in Table 1), and
  // most queries are non-conjunctive (IN lists) yet all rewritable.
  const std::vector<LogEntry> entries = GeneratePocketDataLog(SmallPocket());
  DatasetSummary s = LoadEntries(entries).Summary("pocket");
  const Table1Counts t = Table1Statistics(entries);
  EXPECT_EQ(t.distinct_queries, s.num_distinct_no_const);
  EXPECT_EQ(t.distinct_rewritable, s.num_distinct_no_const);
  EXPECT_LT(t.distinct_conjunctive, s.num_distinct_no_const / 2);
  // Zipf head: max multiplicity is a large fraction of the log.
  EXPECT_GT(s.max_multiplicity * 20, s.num_queries);
  EXPECT_GT(s.avg_features_per_query, 5.0);
  EXPECT_LT(s.avg_features_per_query, 25.0);
}

TEST(BankTest, FunnelContainsNoise) {
  BankLogOptions o = SmallBank();
  LogLoader loader = LoadEntries(GenerateBankLog(o));
  DatasetSummary s = loader.Summary("bank");
  EXPECT_GT(s.num_non_select, 0u);
  EXPECT_GT(s.num_parse_errors, 0u);
  EXPECT_GT(s.num_queries, 0u);
}

TEST(BankTest, ConstantRemovalCollapsesDistinct) {
  // The bank log inlines constants: distinct-with-constants must exceed
  // constant-free distinct by a large factor (188,184 vs 1,712 in the
  // paper).
  const std::vector<LogEntry> entries = GenerateBankLog(SmallBank());
  DatasetSummary s = LoadEntries(entries).Summary("bank");
  const Table1Counts t = Table1Statistics(entries);
  EXPECT_GT(t.distinct_queries, 2 * s.num_distinct_no_const);
  EXPECT_GT(t.distinct_features, s.num_features_no_const);
}

TEST(BankTest, MostlyConjunctive) {
  const std::vector<LogEntry> entries = GenerateBankLog(SmallBank());
  DatasetSummary s = LoadEntries(entries).Summary("bank");
  const Table1Counts t = Table1Statistics(entries);
  // 1494/1712 ≈ 87% in the paper.
  EXPECT_GT(t.distinct_conjunctive * 10, s.num_distinct_no_const * 7);
  EXPECT_EQ(t.distinct_rewritable, s.num_distinct_no_const);
}

TEST(BankTest, BroaderVocabularyThanPocket) {
  LogLoader pocket = LoadEntries(GeneratePocketDataLog(SmallPocket()));
  LogLoader bank = LoadEntries(GenerateBankLog(SmallBank()));
  // Features per distinct query: the bank log is the diverse one.
  double pocket_ratio =
      static_cast<double>(pocket.Summary("p").num_features_no_const) /
      static_cast<double>(pocket.Summary("p").num_distinct_no_const);
  double bank_ratio =
      static_cast<double>(bank.Summary("b").num_features_no_const) /
      static_cast<double>(bank.Summary("b").num_distinct_no_const);
  EXPECT_GT(bank_ratio, pocket_ratio);
}

TEST(IncomeTest, ShapeMatchesTable2) {
  IncomeOptions o;
  o.num_rows = 5000;
  CategoricalTable t = GenerateIncomeData(o);
  EXPECT_EQ(t.attr_names.size(), 9u);
  EXPECT_EQ(t.NumOneHotFeatures(), 783u);
  EXPECT_EQ(t.rows.size(), 5000u);
  // Label skew: high earners are rare but present.
  double pos = 0.0;
  for (double v : t.labels) pos += v;
  EXPECT_GT(pos / t.labels.size(), 0.01);
  EXPECT_LT(pos / t.labels.size(), 0.30);
}

TEST(IncomeTest, BinarizeOneFeaturePerAttribute) {
  IncomeOptions o;
  o.num_rows = 100;
  CategoricalTable t = GenerateIncomeData(o);
  std::vector<FeatureVec> rows = t.Binarize();
  for (const FeatureVec& r : rows) {
    EXPECT_EQ(r.size(), 9u);  // exactly one value per attribute
  }
}

TEST(IncomeTest, LabelCorrelatesWithOccupation) {
  IncomeOptions o;
  o.num_rows = 20000;
  CategoricalTable t = GenerateIncomeData(o);
  double elite_pos = 0, elite_n = 0, other_pos = 0, other_n = 0;
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    if (t.rows[r][0] < 20) {
      elite_pos += t.labels[r];
      elite_n += 1;
    } else if (t.rows[r][0] > 100) {
      other_pos += t.labels[r];
      other_n += 1;
    }
  }
  ASSERT_GT(elite_n, 0.0);
  ASSERT_GT(other_n, 0.0);
  EXPECT_GT(elite_pos / elite_n, 2.0 * (other_pos / other_n));
}

TEST(MushroomTest, ShapeMatchesTable2) {
  MushroomOptions o;
  CategoricalTable t = GenerateMushroomData(o);
  EXPECT_EQ(t.attr_names.size(), 21u);
  EXPECT_EQ(t.NumOneHotFeatures(), 95u);
  EXPECT_EQ(t.rows.size(), 8124u);
}

TEST(MushroomTest, OdorNearlyDeterminesEdibility) {
  MushroomOptions o;
  CategoricalTable t = GenerateMushroomData(o);
  double agree = 0;
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    bool odor_benign = t.rows[r][4] < 3;
    if (odor_benign == (t.labels[r] > 0.5)) agree += 1;
  }
  EXPECT_GT(agree / t.rows.size(), 0.95);
}

TEST(MushroomTest, AttributesAreCorrelated) {
  // The latent group structure must induce visible cross-attribute
  // correlation (what MTV mines). Check odor vs spore print.
  MushroomOptions o;
  CategoricalTable t = GenerateMushroomData(o);
  double both = 0, odor_only = 0, spore_only = 0, n = t.rows.size();
  for (std::size_t r = 0; r < t.rows.size(); ++r) {
    bool a = t.rows[r][4] < 3;   // benign odor
    bool b = t.rows[r][18] == 2; // benign spore print
    if (a && b) both += 1;
    if (a) odor_only += 1;
    if (b) spore_only += 1;
  }
  double lift = (both / n) / ((odor_only / n) * (spore_only / n));
  EXPECT_GT(lift, 1.2);
}

TEST(TabularTest, OneHotIdsAreAttributeMajor) {
  CategoricalTable t;
  t.attr_names = {"a", "b"};
  t.domain_sizes = {3, 2};
  EXPECT_EQ(t.OneHotId(0, 0), 0u);
  EXPECT_EQ(t.OneHotId(0, 2), 2u);
  EXPECT_EQ(t.OneHotId(1, 0), 3u);
  EXPECT_EQ(t.OneHotId(1, 1), 4u);
  EXPECT_EQ(t.NumOneHotFeatures(), 5u);
}

TEST(TabularTest, DistinctCountsWork) {
  CategoricalTable t;
  t.attr_names = {"a"};
  t.domain_sizes = {4};
  t.rows = {{0}, {1}, {0}};
  t.labels = {0, 0, 0};
  EXPECT_EQ(t.NumDistinctRows(), 2u);
  EXPECT_EQ(t.NumDistinctPresentFeatures(), 2u);
}

}  // namespace
}  // namespace logr
