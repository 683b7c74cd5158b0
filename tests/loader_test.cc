// Batched LogLoader equivalence: loads folded from pooled batches must
// equal a one-statement-at-a-time serial load for any pool size, batch
// boundary position, and pattern of mid-stream reads.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/thread_pool.h"
#include "workload/binary_log.h"
#include "workload/extractor.h"
#include "workload/loader.h"
#include "workload/log_view.h"

namespace logr {
namespace {

constexpr std::size_t kBatch = LogLoader::kBatchLines;

struct SerialLoad {
  QueryLog log;
  DatasetSummary summary;
};

/// The oracle: every statement parsed, regularized, featurized and
/// accumulated on the calling thread as it arrives, with default options.
SerialLoad LoadSerially(const std::vector<LogEntry>& entries,
                        const std::string& name) {
  SerialLoad out;
  DatasetSummary& s = out.summary;
  Vocabulary with_const_vocab;
  std::set<std::string> with_const, no_const, conjunctive, rewritable;
  sql::RegularizeOptions keep_consts;
  keep_consts.anonymize_constants = false;
  for (const LogEntry& e : entries) {
    if (e.count == 0) continue;
    sql::ParseResult parsed = sql::Parse(e.sql);
    if (parsed.kind == sql::StatementKind::kParseError) {
      s.num_parse_errors += e.count;
      continue;
    }
    if (!parsed.ok()) {
      s.num_non_select += e.count;
      continue;
    }
    s.num_queries += e.count;
    sql::RegularizeInfo info;
    sql::StatementPtr regular = sql::Regularize(*parsed.statement, {}, &info);
    const std::string canonical = sql::PrintStatement(*regular);
    no_const.insert(canonical);
    if (info.conjunctive) conjunctive.insert(canonical);
    if (info.rewritable) rewritable.insert(canonical);
    out.log.Add(ExtractFeatures(*regular, {}, out.log.mutable_vocabulary()),
                e.count, e.sql);
    sql::RegularizeInfo unused;
    sql::StatementPtr constants =
        sql::Regularize(*parsed.statement, keep_consts, &unused);
    with_const.insert(sql::PrintStatement(*constants));
    for (const Feature& f : ListFeatures(*constants, {})) {
      with_const_vocab.Intern(f);
    }
  }
  s.name = name;
  s.num_distinct = with_const.size();
  s.num_distinct_no_const = no_const.size();
  s.num_distinct_conjunctive = conjunctive.size();
  s.num_distinct_rewritable = rewritable.size();
  s.max_multiplicity = out.log.MaxMultiplicity();
  s.num_features = with_const_vocab.size();
  s.num_features_no_const = out.log.NumFeatures();
  s.avg_features_per_query = out.log.AvgFeaturesPerQuery();
  return out;
}

LogLoader LoadOn(ThreadPool* pool, const std::vector<LogEntry>& entries) {
  LogLoader::Options opts;
  opts.track_with_constant_stats = true;
  opts.pool = pool;
  return LoadEntries(entries, opts);
}

std::string OracleBytes(const SerialLoad& oracle) {
  std::ostringstream out;
  std::string error;
  EXPECT_TRUE(
      BinaryLogWriter::Write(oracle.log, oracle.summary, &out, &error))
      << error;
  return out.str();
}

std::string WriteBinaryBytes(const LogLoader& loader, const std::string& name) {
  const std::string path = ::testing::TempDir() + "loader_test_" +
                           std::to_string(::getpid()) + ".logrl";
  std::string error;
  EXPECT_TRUE(loader.WriteBinary(path, name, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::remove(path.c_str());
  return bytes;
}

/// Summary() goes first: it must fold the pending batch on its own.
void ExpectSameAsSerial(const LogLoader& loader, const SerialLoad& oracle) {
  const std::string& name = oracle.summary.name;
  std::string why;
  EXPECT_TRUE(SameDatasetSummary(loader.Summary(name), oracle.summary, &why))
      << why;
  EXPECT_TRUE(SameQueryLog(loader.log(), oracle.log, &why)) << why;
  EXPECT_EQ(WriteBinaryBytes(loader, name), OracleBytes(oracle));
}

void ExpectBatchedEqualsSerial(const std::vector<LogEntry>& entries,
                               const std::string& name) {
  ASSERT_GT(entries.size(), 2 * kBatch) << "log must span several batches";
  const SerialLoad oracle = LoadSerially(entries, name);
  ThreadPool degenerate(0);
  ThreadPool four(4);
  for (ThreadPool* pool : {&degenerate, &four}) {
    SCOPED_TRACE("threads=" + std::to_string(pool->NumThreads()));
    ExpectSameAsSerial(LoadOn(pool, entries), oracle);
  }
}

TEST(LoaderBatchTest, BankBatchedEqualsSerial) {
  BankLogOptions gen;
  gen.num_templates = 500;
  gen.total_queries = 200000;
  ExpectBatchedEqualsSerial(GenerateBankLog(gen), "bank");
}

TEST(LoaderBatchTest, PocketDataBatchedEqualsSerial) {
  PocketDataOptions gen;
  gen.num_distinct = 2500;
  gen.total_queries = 100000;
  ExpectBatchedEqualsSerial(GeneratePocketDataLog(gen), "pocket");
}

/// `selects` SELECT lines (some disjunctive, repeated templates and
/// constants) with a parse error, a non-SELECT and a zero-count SELECT
/// right before SELECT kBatch - 1, right before SELECT kBatch, and at
/// the end. Queued noise counts toward a batch, so the first noise
/// block's parse error is line kBatch and fills the first batch.
std::vector<LogEntry> BoundaryLog(std::size_t selects) {
  const std::vector<LogEntry> noise = {
      {"@@garbage@@", 2}, {"UPDATE t SET a = 1", 3}, {"SELECT z FROM t", 0}};
  std::vector<LogEntry> out;
  for (std::size_t i = 0; i < selects; ++i) {
    if (i + 1 == kBatch || i == kBatch) {
      out.insert(out.end(), noise.begin(), noise.end());
    }
    std::string sql = "SELECT c" + std::to_string(i % 37) + " FROM t" +
                      std::to_string(i % 11) + " WHERE a = " +
                      std::to_string(i % 101);
    if (i % 5 == 0) sql += " OR b IN (1, 2)";
    out.push_back({std::move(sql), 1 + i % 3});
  }
  out.insert(out.end(), noise.begin(), noise.end());
  return out;
}

TEST(LoaderBatchTest, BatchBoundaries) {
  ThreadPool four(4);
  for (std::size_t selects : {kBatch - 1, kBatch, kBatch + 1}) {
    SCOPED_TRACE("selects=" + std::to_string(selects));
    const std::vector<LogEntry> entries = BoundaryLog(selects);
    const SerialLoad oracle = LoadSerially(entries, "boundary");
    const std::size_t noise_blocks =
        1 + (selects >= kBatch ? 1 : 0) + (selects > kBatch ? 1 : 0);
    ASSERT_EQ(oracle.summary.num_parse_errors, 2 * noise_blocks);
    ASSERT_EQ(oracle.summary.num_non_select, 3 * noise_blocks);
    ExpectSameAsSerial(LoadOn(&four, entries), oracle);
  }
}

TEST(LoaderBatchTest, MidStreamReadsMatchOneUninterruptedPass) {
  const std::vector<LogEntry> entries = BoundaryLog(2 * kBatch + 100);
  ThreadPool four(4);
  LogLoader::Options opts;
  opts.track_with_constant_stats = true;
  opts.pool = &four;
  LogLoader loader(opts);
  // Every queued line counts toward a batch, so line kBatch, the first
  // noise block's parse error, fills the first batch. Reads land early in
  // that batch, one line before it fills, on the line that fills it and
  // the line after, around SELECT kBatch - 1 (line kBatch + 3), on SELECT
  // kBatch (line kBatch + 7), and one line before the end.
  const std::set<std::size_t> probes = {
      10,         kBatch - 1, kBatch,     kBatch + 1, kBatch + 2,
      kBatch + 3, kBatch + 4, kBatch + 7, entries.size() - 1};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    loader.AddSql(entries[i].sql, entries[i].count);
    if (probes.count(i + 1) == 0) continue;
    SCOPED_TRACE("after " + std::to_string(i + 1) + " lines");
    const std::vector<LogEntry> prefix(entries.begin(),
                                       entries.begin() + (i + 1));
    const SerialLoad oracle = LoadSerially(prefix, "mid");
    std::string why;
    EXPECT_TRUE(
        SameDatasetSummary(loader.Summary("mid"), oracle.summary, &why))
        << why;
    EXPECT_TRUE(SameQueryLog(loader.log(), oracle.log, &why)) << why;
  }
  const SerialLoad whole = LoadSerially(entries, "mid");
  ExpectSameAsSerial(loader, whole);
  ExpectSameAsSerial(LoadOn(&four, entries), whole);
}

TEST(LoaderBatchTest, NoiseOnlyBatches) {
  // Parse errors, non-SELECTs and four zero-count SELECTs: 2 * kBatch + 1
  // queued lines, so two full batches and a partial one, none a query.
  std::vector<LogEntry> entries;
  for (std::size_t i = 0; i < 2 * kBatch + 5; ++i) {
    const std::string n = std::to_string(i);
    switch (i % 4) {
      case 0: entries.push_back({"@@garbage" + n + "@@", 1 + i % 3}); break;
      case 1: entries.push_back({"UPDATE t SET a = " + n, 2}); break;
      case 2: entries.push_back({"EXEC sp_thing " + n, 1}); break;
      default:
        if (i % 512 == 511) {
          entries.push_back({"SELECT z FROM t WHERE a = " + n, 0});
        } else {
          entries.push_back({"DELETE FROM t", 3});
        }
    }
  }
  const SerialLoad oracle = LoadSerially(entries, "noise");
  ASSERT_EQ(oracle.summary.num_queries, 0u);
  ASSERT_GT(oracle.summary.num_parse_errors, 0u);
  ASSERT_GT(oracle.summary.num_non_select, 0u);
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {&one, &four}) {
    SCOPED_TRACE("threads=" + std::to_string(pool->NumThreads()));
    ExpectSameAsSerial(LoadOn(pool, entries), oracle);
  }
}

/// Lines that share one constant-free template but not its flags. The
/// loader keeps one record per canonical print, so each flag must count
/// once per template, on whichever line first sets it, in any order and
/// on either side of a batch boundary.
TEST(LoaderBatchTest, TemplateFlagsCountOncePerCanonical) {
  // Seven two-way disjunctions expand to 128 DNF disjuncts, over the cap
  // of 64: neither line of that pair is rewritable.
  std::string wide = "SELECT a FROM u WHERE c = 0";
  std::string wide_upper = "SELECT A FROM U WHERE C = 9";
  for (int i = 1; i <= 7; ++i) {
    const std::string n = std::to_string(i);
    wide += " AND (c IN (" + n + ", 2" + n + ") OR d = " + n + ")";
    wide_upper += " AND (C IN (3" + n + ", 4" + n + ") OR D = 5" + n + ")";
  }
  // Each pair shares one template. `b IN (1, 2)` and `b = 3` print alike
  // once constants go, but only `b = 3` is conjunctive.
  const std::vector<std::pair<LogEntry, LogEntry>> pairs = {
      {{"SELECT a FROM t WHERE b IN (1, 2)", 2},
       {"SELECT a FROM t WHERE b = 3", 1}},
      {{"SELECT a FROM v WHERE b = 3", 1},
       {"SELECT a FROM v WHERE b IN (1, 2)", 4}},
      {{"SELECT A FROM X WHERE B IN (5, 6, 7)", 1},
       {"select a from x where b = 8", 3}},
      {{"SELECT A FROM T", 1}, {"select a from t", 2}},
      {{wide, 1}, {wide_upper, 2}},
  };
  // First lines open the first batch; second lines start two lines before
  // the boundary, so they straddle it; then every pair again, reversed.
  std::vector<LogEntry> entries;
  for (const auto& [first, second] : pairs) entries.push_back(first);
  for (std::size_t i = 0; entries.size() < kBatch - 2; ++i) {
    entries.push_back({"SELECT f" + std::to_string(i % 50) + " FROM w", 1});
  }
  for (const auto& [first, second] : pairs) entries.push_back(second);
  for (const auto& [first, second] : pairs) {
    entries.push_back(second);
    entries.push_back(first);
  }

  const SerialLoad oracle = LoadSerially(entries, "flags");
  ASSERT_EQ(oracle.summary.num_distinct_no_const, pairs.size() + 50);
  ASSERT_EQ(oracle.summary.num_distinct_conjunctive, 4u + 50u);
  ASSERT_EQ(oracle.summary.num_distinct_rewritable, 4u + 50u);
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {&one, &four}) {
    SCOPED_TRACE("threads=" + std::to_string(pool->NumThreads()));
    ExpectSameAsSerial(LoadOn(pool, entries), oracle);
  }
}

/// Compression reads only the log and the funnel. A loader that skips the
/// with-constants statistics must build the same log and counters as one
/// that tracks them, report the two columns it skipped as not tracked,
/// and write a .logrl that opens and keeps that value.
TEST(LoaderBatchTest, UntrackedMatchesTrackedLog) {
  BankLogOptions gen;
  gen.num_templates = 500;
  gen.total_queries = 200000;
  const std::vector<LogEntry> entries = GenerateBankLog(gen);
  constexpr std::uint64_t kNotTracked = DatasetSummary::kNotTracked;
  ThreadPool degenerate(0);
  ThreadPool four(4);
  for (ThreadPool* pool : {&degenerate, &four}) {
    SCOPED_TRACE("threads=" + std::to_string(pool->NumThreads()));
    LogLoader::Options opts;
    opts.pool = pool;
    LogLoader untracked = LoadEntries(entries, opts);
    opts.track_with_constant_stats = true;
    LogLoader tracked = LoadEntries(entries, opts);
    const DatasetSummary u = untracked.Summary("bank");
    const DatasetSummary t = tracked.Summary("bank");
    std::string why;
    EXPECT_TRUE(SameQueryLog(untracked.log(), tracked.log(), &why)) << why;
    EXPECT_EQ(u.num_queries, t.num_queries);
    EXPECT_EQ(u.num_non_select, t.num_non_select);
    EXPECT_EQ(u.num_parse_errors, t.num_parse_errors);
    EXPECT_EQ(u.num_distinct_no_const, t.num_distinct_no_const);
    EXPECT_EQ(u.num_distinct_conjunctive, t.num_distinct_conjunctive);
    EXPECT_EQ(u.num_distinct_rewritable, t.num_distinct_rewritable);
    EXPECT_EQ(u.max_multiplicity, t.max_multiplicity);
    EXPECT_EQ(u.num_features_no_const, t.num_features_no_const);
    EXPECT_EQ(u.avg_features_per_query, t.avg_features_per_query);
    EXPECT_EQ(u.num_distinct, kNotTracked);
    EXPECT_EQ(u.num_features, kNotTracked);
    EXPECT_GT(t.num_distinct, t.num_distinct_no_const);
    EXPECT_GT(t.num_features, t.num_features_no_const);

    const std::string path = ::testing::TempDir() + "loader_test_untracked_" +
                             std::to_string(::getpid()) + ".logrl";
    std::string error;
    ASSERT_TRUE(untracked.WriteBinary(path, "bank", &error)) << error;
    MmapQueryLog reloaded;
    ASSERT_TRUE(MmapQueryLog::Open(path, &reloaded, &error)) << error;
    EXPECT_EQ(reloaded.summary().num_distinct, kNotTracked);
    EXPECT_EQ(reloaded.summary().num_features, kNotTracked);
    EXPECT_TRUE(SameDatasetSummary(reloaded.summary(), u, &why)) << why;
    EXPECT_TRUE(SameQueryLog(LogView(reloaded).Materialize(), tracked.log(),
                             &why))
        << why;
    std::remove(path.c_str());
  }
}

TEST(LoaderBatchTest, EveryReaderFoldsThePendingBatch) {
  // kBatch + 7 SELECTs leave 7 queued; each reader, called first, must
  // fold them before it answers.
  const std::vector<LogEntry> entries = BoundaryLog(kBatch + 7);
  const SerialLoad oracle = LoadSerially(entries, "reader");
  std::string why;
  EXPECT_TRUE(SameQueryLog(LoadOn(nullptr, entries).log(), oracle.log, &why))
      << why;
  EXPECT_TRUE(
      SameQueryLog(LoadOn(nullptr, entries).TakeLog(), oracle.log, &why))
      << why;
  EXPECT_EQ(WriteBinaryBytes(LoadOn(nullptr, entries), "reader"),
            OracleBytes(oracle));
}

/// One line read back by ReadTextLog.
struct ReadLine {
  std::string sql;
  std::uint64_t count;
  bool operator==(const ReadLine& o) const {
    return sql == o.sql && count == o.count;
  }
};

std::ostream& operator<<(std::ostream& os, const ReadLine& l) {
  return os << l.count << " x \"" << l.sql << "\"";
}

/// Reads `text` as a text log; returns false with `error` on refusal.
bool ReadLines(const std::string& text, std::vector<ReadLine>* lines,
               std::string* error) {
  std::istringstream in(text);
  lines->clear();
  return ReadTextLog(
      in,
      [&](std::string_view sql, std::uint64_t count) {
        lines->push_back({std::string(sql), count});
      },
      error);
}

TEST(TextLogTest, CountPrefixClasses) {
  struct Case {
    const char* line;
    const char* sql;
    std::uint64_t count;
  };
  const Case cases[] = {
      {"7\tSELECT a", "SELECT a", 7},
      {"SELECT a", "SELECT a", 1},                    // no tab
      {" 7\tSELECT a", " 7\tSELECT a", 1},            // space
      {"7 \tSELECT a", "7 \tSELECT a", 1},            // trailing space
      {"+7\tSELECT a", "+7\tSELECT a", 1},            // sign
      {"-7\tSELECT a", "-7\tSELECT a", 1},            // sign
      {"\tSELECT a", "\tSELECT a", 1},                // tab at column 0
      {"7x\tSELECT a", "7x\tSELECT a", 1},            // not all digits
      {"0\tSELECT a", "SELECT a", 0},                 // explicit zero
      {"007\tSELECT a", "SELECT a", 7},               // leading zeros
      {"SELECT a\t3", "SELECT a\t3", 1},              // tab after SQL
      {"4\tSELECT a\tb", "SELECT a\tb", 4},           // first tab only
      {"18446744073709551615\tSELECT a", "SELECT a", UINT64_MAX},
  };
  for (const Case& c : cases) {
    std::string_view sql;
    std::uint64_t count = 99;
    ASSERT_TRUE(SplitCountPrefix(c.line, &sql, &count)) << c.line;
    EXPECT_EQ(sql, c.sql) << c.line;
    EXPECT_EQ(count, c.count) << c.line;
  }
  // One past UINT64_MAX is an error, not SQL text.
  std::string_view sql;
  std::uint64_t count = 0;
  EXPECT_FALSE(
      SplitCountPrefix("18446744073709551616\tSELECT a", &sql, &count));
}

TEST(TextLogTest, ReaderSkipsEmptyLinesAndReadsCrlfAsLf) {
  std::vector<ReadLine> lf, crlf;
  std::string error;
  ASSERT_TRUE(ReadLines("2\tSELECT a\n\n0\tSELECT b\nSELECT c\n", &lf,
                        &error))
      << error;
  ASSERT_TRUE(ReadLines("2\tSELECT a\r\n\r\n0\tSELECT b\r\nSELECT c", &crlf,
                        &error))
      << error;
  const std::vector<ReadLine> expected = {
      {"SELECT a", 2}, {"SELECT b", 0}, {"SELECT c", 1}};
  EXPECT_EQ(lf, expected);
  EXPECT_EQ(crlf, expected);
}

TEST(TextLogTest, ReaderRefusesOverflowNamingTheLine) {
  std::vector<ReadLine> lines;
  std::string error;
  EXPECT_FALSE(ReadLines("SELECT a\n\n18446744073709551616\tSELECT b\n",
                         &lines, &error));
  EXPECT_EQ(error, "line 3: count 18446744073709551616 does not fit in 64 "
                   "bits");
  EXPECT_EQ(lines.size(), 1u);

  // Each count fits, but the total would pass UINT64_MAX.
  EXPECT_FALSE(ReadLines("9223372036854775807\tSELECT a\n"
                         "9223372036854775807\tSELECT a\n"
                         "2\tSELECT a\n",
                         &lines, &error));
  EXPECT_EQ(error, "line 3: count 2 takes the log's total past "
                   "18446744073709551615");
  EXPECT_EQ(lines.size(), 2u);

  // Exactly UINT64_MAX in total is fine.
  ASSERT_TRUE(ReadLines("18446744073709551614\tSELECT a\n1\tSELECT a\n",
                        &lines, &error))
      << error;
}

}  // namespace
}  // namespace logr
