// Batched LogLoader equivalence: loads folded from pooled batches must
// equal a one-statement-at-a-time serial load for any pool size, batch
// boundary position, and pattern of mid-stream reads.
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
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

}  // namespace
}  // namespace logr
