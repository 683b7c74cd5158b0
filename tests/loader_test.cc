// Batched LogLoader equivalence: loads folded from pooled batches must
// equal a one-statement-at-a-time serial load for any pool size, batch
// boundary position, and pattern of mid-stream reads.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <ostream>
#include <istream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "data/table1.h"
#include "gtest/gtest.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/thread_pool.h"
#include "workload/binary_log.h"
#include "workload/extractor.h"
#include "workload/loader.h"

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
  std::set<std::string> no_const;
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
    sql::StatementPtr regular = sql::Regularize(*parsed.statement, {}, nullptr);
    no_const.insert(sql::PrintStatement(*regular));
    out.log.Add(ExtractFeatures(*regular, {}, out.log.mutable_vocabulary()),
                e.count, e.sql);
  }
  s.name = name;
  s.num_distinct_no_const = no_const.size();
  s.max_multiplicity = out.log.MaxMultiplicity();
  s.num_features_no_const = out.log.NumFeatures();
  s.avg_features_per_query = out.log.AvgFeaturesPerQuery();
  return out;
}

LogLoader LoadOn(ThreadPool* pool, const std::vector<LogEntry>& entries) {
  LogLoader::Options opts;
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

/// Lines that share one constant-free template but not its conjunctive
/// or rewritable flag. The loader keeps one record per canonical print,
/// in any order and on either side of a batch boundary, and
/// Table1Statistics counts each flag once per template, on whichever
/// line sets it.
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
  const Table1Counts t = Table1Statistics(entries);
  EXPECT_EQ(t.distinct_conjunctive, 4u + 50u);
  EXPECT_EQ(t.distinct_rewritable, 4u + 50u);
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {&one, &four}) {
    SCOPED_TRACE("threads=" + std::to_string(pool->NumThreads()));
    ExpectSameAsSerial(LoadOn(pool, entries), oracle);
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

/// Loads `entries` on pools of 0, 1 and 4 threads; each load must equal
/// the serial oracle, which parses every line on its own.
void ExpectEqualsSerialOnEveryPool(const std::vector<LogEntry>& entries,
                                   const SerialLoad& oracle) {
  ThreadPool none(0);
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {&none, &one, &four}) {
    SCOPED_TRACE("threads=" + std::to_string(pool->NumThreads()));
    ExpectSameAsSerial(LoadOn(pool, entries), oracle);
  }
}

TEST(TemplateKeyTest, LiteralTypesFoldIntoOneTemplate) {
  const std::vector<LogEntry> entries = {
      {"SELECT a FROM t WHERE b = 1", 2},
      {"SELECT a FROM t WHERE b = 'x'", 3},
      {"SELECT a FROM t WHERE b = 1.5", 1},
      {"SELECT a FROM t WHERE b = 'it''s'", 4},
  };
  for (const LogEntry& e : entries) {
    EXPECT_EQ(TemplateKey(e.sql), TemplateKey(entries[0].sql)) << e.sql;
  }
  const SerialLoad oracle = LoadSerially(entries, "fold");
  ASSERT_EQ(oracle.summary.num_distinct_no_const, 1u);
  ASSERT_EQ(oracle.summary.num_queries, 10u);
  ExpectEqualsSerialOnEveryPool(entries, oracle);
}

TEST(TemplateKeyTest, LimitAndOffsetConstantsStayInTheKey) {
  // Literals keep their text from the first LIMIT or OFFSET on, in a
  // subquery too, because AnonymizeConstants keeps those constants.
  const std::vector<std::pair<const char*, const char*>> pairs = {
      {"SELECT a FROM t LIMIT 10", "SELECT a FROM t LIMIT 50"},
      {"SELECT a FROM t LIMIT 10 OFFSET 5",
       "SELECT a FROM t LIMIT 10 OFFSET 6"},
      {"SELECT a FROM t LIMIT 5, 20", "SELECT a FROM t LIMIT 6, 20"},
      {"SELECT a FROM t LIMIT 1+2", "SELECT a FROM t LIMIT 1+3"},
      {"SELECT a FROM t LIMIT 1", "SELECT a FROM t LIMIT '1'"},
      {"SELECT a FROM t WHERE b IN (SELECT c FROM u LIMIT 3) AND d = 1",
       "SELECT a FROM t WHERE b IN (SELECT c FROM u LIMIT 4) AND d = 1"},
  };
  std::vector<LogEntry> entries;
  for (const auto& [x, y] : pairs) {
    EXPECT_NE(TemplateKey(x), TemplateKey(y)) << x << " | " << y;
    entries.push_back({x, 1});
    entries.push_back({y, 2});
  }
  // Before the first LIMIT the literal folds; after it, it is kept.
  EXPECT_EQ(TemplateKey("SELECT a FROM t WHERE b = 1 LIMIT 10"),
            TemplateKey("SELECT a FROM t WHERE b = 'z' LIMIT 10"));
  const SerialLoad oracle = LoadSerially(entries, "limit");
  ASSERT_EQ(oracle.summary.num_distinct_no_const, 2 * pairs.size());
  ExpectEqualsSerialOnEveryPool(entries, oracle);
}

TEST(TemplateKeyTest, IdentifiersFoldByCaseOnly) {
  EXPECT_EQ(TemplateKey("SELECT Amount FROM Accounts"),
            TemplateKey("select \"AMOUNT\" from [accounts]"));
  EXPECT_NE(TemplateKey("SELECT a FROM t"), TemplateKey("SELECT b FROM t"));
  EXPECT_NE(TemplateKey("SELECT ab FROM t"),
            TemplateKey("SELECT a b FROM t"));
}

TEST(TemplateKeyTest, OperatorsKeywordsAndParametersStayInTheKey) {
  // Each line differs from the others by one token that is no literal,
  // so each is its own template.
  const std::vector<LogEntry> entries = {
      {"SELECT a FROM t WHERE b = 1", 1},
      {"SELECT a FROM t WHERE b < 1", 2},
      {"SELECT a FROM t WHERE b != 1", 1},
      {"SELECT a + 1 FROM t", 1},
      {"SELECT a - 1 FROM t", 3},
      {"SELECT a FROM t WHERE b = 1 AND c = 2", 1},
      {"SELECT a FROM t WHERE b = 1 OR c = 2", 1},
      {"SELECT a FROM t ORDER BY a ASC", 1},
      {"SELECT a FROM t ORDER BY a DESC", 2},
      {"SELECT a FROM t WHERE b IS NULL", 1},
      {"SELECT a FROM t WHERE b IS NOT NULL", 1},
      {"SELECT a FROM t LIMIT ?", 1},
  };
  std::set<std::string> keys;
  for (const LogEntry& e : entries) keys.insert(TemplateKey(e.sql));
  EXPECT_EQ(keys.size(), entries.size());
  const SerialLoad oracle = LoadSerially(entries, "tokens");
  ASSERT_EQ(oracle.summary.num_distinct_no_const, entries.size());
  ExpectEqualsSerialOnEveryPool(entries, oracle);
}

/// `copies` lines of each of `shapes` SELECT shapes with fresh constants,
/// written shape-major so a shape's copies follow one another, and
/// spanning several batches.
std::vector<LogEntry> RepeatedShapes(std::size_t shapes, std::size_t copies) {
  std::vector<LogEntry> out;
  for (std::size_t s = 0; s < shapes; ++s) {
    for (std::size_t c = 0; c < copies; ++c) {
      const std::string v = std::to_string(s * copies + c);
      const std::string literal =
          c % 3 == 0 ? v : (c % 3 == 1 ? "'" + v + "'" : v + ".5");
      out.push_back({"SELECT c" + std::to_string(s % 29) + " FROM t" +
                         std::to_string(s % 17) + " WHERE a = " + literal +
                         (s % 4 == 0 ? " OR b IN (1, 2)" : ""),
                     1 + c % 3});
    }
  }
  return out;
}

TEST(TemplateKeyTest, KeysHitWithinAndAcrossBatches) {
  // 7 copies per shape put some shapes' copies on both sides of a batch
  // boundary; the shapes then come around again in later batches.
  std::vector<LogEntry> entries = RepeatedShapes(400, 7);
  const std::vector<LogEntry> again = RepeatedShapes(400, 2);
  entries.insert(entries.end(), again.begin(), again.end());
  ASSERT_GT(entries.size(), 2 * kBatch);
  EXPECT_EQ(TemplateKey(entries[0].sql), TemplateKey(entries[1].sql));
  EXPECT_EQ(TemplateKey(entries[0].sql), TemplateKey(entries[400 * 7].sql));
  const SerialLoad oracle = LoadSerially(entries, "hits");
  ASSERT_EQ(oracle.summary.num_distinct_no_const, 400u);
  ExpectEqualsSerialOnEveryPool(entries, oracle);
}

TEST(TemplateKeyTest, RepeatedNoiseCountsOncePerCopy) {
  // Each noise shape repeats with other constants and counts, inside a
  // batch and across its boundary. A line that fails to lex is never a
  // SELECT, even when the tokens before the error make one, but after
  // INSERT it is still a non-SELECT.
  const std::vector<std::pair<std::string, bool>> shapes = {
      {"SELECT FROM t WHERE a = ", false},       // lexes, fails to parse
      {"UPDATE t SET a = ", true},
      {"EXEC sp_thing ", true},
      {"INSERT INTO t VALUES ('unterminated ", true},  // lex error
      {"SELECT a FROM t WHERE b = 'unterminated ", false},
      {"SELECT a FROM t '", false},
  };
  std::vector<LogEntry> entries = {{"SELECT a FROM t", 5}};
  std::uint64_t errors = 0, non_select = 0;
  for (std::size_t i = 0; i < kBatch + 300; ++i) {
    const auto& [prefix, is_non_select] = shapes[i % shapes.size()];
    const std::uint64_t count = 1 + i % 4;
    entries.push_back({prefix + std::to_string(i), count});
    (is_non_select ? non_select : errors) += count;
  }
  // A lex error ends the key, after the tokens before it.
  EXPECT_NE(TemplateKey("SELECT 'unterminated"), TemplateKey("SELECT"));
  EXPECT_NE(TemplateKey("SELECT 'unterminated"),
            TemplateKey("INSERT 'unterminated"));
  EXPECT_EQ(TemplateKey("SELECT 'unterminated"), TemplateKey("SELECT 'x"));
  const SerialLoad oracle = LoadSerially(entries, "noise");
  ASSERT_EQ(oracle.summary.num_parse_errors, errors);
  ASSERT_EQ(oracle.summary.num_non_select, non_select);
  ASSERT_EQ(oracle.summary.num_queries, 5u);
  ExpectEqualsSerialOnEveryPool(entries, oracle);
}

TEST(TemplateKeyTest, AllDistinctShapesNeverHit) {
  std::vector<LogEntry> entries;
  for (std::size_t i = 0; i < 2 * kBatch + 50; ++i) {
    entries.push_back({"SELECT c FROM t" + std::to_string(i) + " WHERE a = ?",
                       1 + i % 5});
  }
  const SerialLoad oracle = LoadSerially(entries, "distinct");
  ASSERT_EQ(oracle.summary.num_distinct_no_const, entries.size());
  ExpectEqualsSerialOnEveryPool(entries, oracle);
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

/// Serves two lines, then fails the way a read error does: the stream
/// catches the exception and sets badbit.
class FailingBuf : public std::streambuf {
 public:
  FailingBuf() { setg(text_, text_, text_ + sizeof(text_) - 1); }

 protected:
  int_type underflow() override { throw std::runtime_error("read failed"); }

 private:
  char text_[22] = "SELECT a\n3\tSELECT b\n";
};

TEST(TextLogTest, ReaderRefusesAReadErrorNamingTheLastLine) {
  FailingBuf buf;
  std::istream in(&buf);
  std::vector<ReadLine> lines;
  std::string error;
  EXPECT_FALSE(ReadTextLog(
      in,
      [&](std::string_view sql, std::uint64_t count) {
        lines.push_back({std::string(sql), count});
      },
      &error));
  EXPECT_EQ(error, "read error after line 2");
  const std::vector<ReadLine> expected = {{"SELECT a", 1}, {"SELECT b", 3}};
  EXPECT_EQ(lines, expected);
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
