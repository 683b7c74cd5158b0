// Golden Table-1 test: a checked-in raw-SQL fixture
// (tests/testdata/golden.sql) with every Table-1 statistic asserted
// exactly, locking the loader funnel — classification, regularization,
// feature extraction — against regressions on BOTH load paths (text
// funnel and binary round-trip), and the paper-only columns (constant
// tracking, conjunctive/rewritable) against Table1Statistics.
//
// Fixture contents, by hand:
//   11 valid SELECTs:
//     3x users-by-age (constants 42/43/42 -> one constant-free template)
//     3x accounts (user_id AND status twice, user_id OR status once; the
//        OR variant regularizes to a different canonical template but
//        the SAME feature vector)
//     1x users/accounts JOIN
//     4x count(*) FROM sessions
//   4 non-SELECTs (UPDATE / INSERT / EXEC / DELETE)
//   2 unparseable lines
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "data/sql_log.h"
#include "data/table1.h"
#include "gtest/gtest.h"
#include "oracles/same_log.h"
#include "workload/binary_log.h"
#include "workload/loader.h"
#include "workload/log_view.h"

namespace logr {
namespace {

std::vector<LogEntry> GoldenEntries() {
  const std::string path = std::string(LOGR_TESTDATA_DIR) + "/golden.sql";
  std::ifstream in(path);
  EXPECT_TRUE(static_cast<bool>(in)) << "missing fixture: " << path;
  std::vector<LogEntry> entries;
  std::string error;
  EXPECT_TRUE(ReadTextLog(
      in,
      [&](std::string_view sql, std::uint64_t count) {
        entries.push_back({std::string(sql), count});
      },
      &error))
      << error;
  return entries;
}

LogLoader LoadGoldenFixture() { return LoadEntries(GoldenEntries()); }

void ExpectGoldenSummary(const DatasetSummary& s) {
  EXPECT_EQ(s.name, "golden");
  EXPECT_EQ(s.num_queries, 11u);
  EXPECT_EQ(s.num_non_select, 4u);
  EXPECT_EQ(s.num_parse_errors, 2u);
  // Without constants the users variants collapse and the accounts
  // variants collapse to AND-form + OR-form.
  EXPECT_EQ(s.num_distinct_no_const, 5u);
  EXPECT_EQ(s.max_multiplicity, 4u);  // count(*) FROM sessions
  EXPECT_EQ(s.num_features_no_const, 14u);
  // (3*4 + 3*4 + 1*6 + 4*2) features over 11 queries.
  EXPECT_DOUBLE_EQ(s.avg_features_per_query, 38.0 / 11.0);
}

TEST(GoldenTable1Test, TextFunnelMatchesGoldenStatistics) {
  LogLoader loader = LoadGoldenFixture();
  ExpectGoldenSummary(loader.Summary("golden"));

  // The OR-variant shares the AND-variant's feature vector, so the
  // 5 constant-free templates yield 4 distinct vectors.
  EXPECT_EQ(loader.log().NumDistinct(), 4u);
  EXPECT_EQ(loader.log().TotalQueries(), 11u);
  EXPECT_EQ(loader.log().NumFeatures(), 14u);
}

TEST(GoldenTable1Test, BinaryRoundTripPreservesGoldenStatistics) {
  LogLoader loader = LoadGoldenFixture();
  std::ostringstream buffer;
  std::string error;
  ASSERT_TRUE(BinaryLogWriter::Write(loader.log(), loader.Summary("golden"),
                                     &buffer, &error))
      << error;
  const std::string bytes = buffer.str();
  MmapQueryLog reloaded;
  ASSERT_TRUE(MmapQueryLog::OpenBuffer(bytes.data(), bytes.size(), &reloaded,
                                       &error))
      << error;
  ExpectGoldenSummary(reloaded.summary());
  std::string why;
  EXPECT_TRUE(
      SameQueryLog(loader.log(), LogView(reloaded).Materialize(), &why))
      << why;
}

TEST(GoldenTable1Test, PaperOnlyColumnsMatchGoldenStatistics) {
  const Table1Counts t = Table1Statistics(GoldenEntries());
  // With constants: 2 users variants + 3 accounts variants + join +
  // count(*).
  EXPECT_EQ(t.distinct_queries, 7u);
  // The OR query is not conjunctive...
  EXPECT_EQ(t.distinct_conjunctive, 4u);
  // ...but rewritable (OR of atoms -> UNION).
  EXPECT_EQ(t.distinct_rewritable, 5u);
  EXPECT_EQ(t.distinct_features, 17u);
}

}  // namespace
}  // namespace logr
