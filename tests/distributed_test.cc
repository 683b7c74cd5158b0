// Tests for the distributed scatter/gather coordinator
// (core/distributed.h): worker crash-retry (SIGKILL mid-job loses an
// attempt, never the job), coordinator resume from a warm spool, the
// in-process fallback after the last failed attempt, and the shard
// files `logr_cli split` writes. That a clean run gathers to the
// in-process sharded bytes, and its spool merges offline to them, is
// equivalence_test's distributed leg.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/distributed.h"
#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "core/sharded.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "oracles/same_log.h"
#include "workload/binary_log.h"
#include "workload/log_view.h"

namespace logr {
namespace {

QueryLog PocketLog() {
  PocketDataOptions gen;
  gen.num_distinct = 160;
  gen.total_queries = 50000;
  return LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
}

QueryLog BankLog() {
  BankLogOptions gen;
  gen.num_templates = 180;
  gen.total_queries = 60000;
  gen.noise_entries = 15;
  return LoadEntries(GenerateBankLog(gen)).TakeLog();
}

std::string UniqueDir(const std::string& tag) {
  return ::testing::TempDir() + "logr_dist_" + tag + "_" +
         std::to_string(::getpid());
}

/// Writes `log` as `logr_cli split` does, under a fresh directory.
std::vector<std::string> WriteShards(const QueryLog& log,
                                     std::size_t num_shards,
                                     const std::string& tag) {
  std::vector<ShardFile> files;
  std::string error;
  EXPECT_TRUE(WriteShardFiles(LogView(log), num_shards, UniqueDir(tag), tag,
                              &files, &error))
      << error;
  std::vector<std::string> paths;
  for (const ShardFile& f : files) paths.push_back(f.path);
  return paths;
}

std::string Bytes(const Vocabulary& vocab, const WorkloadModel& model) {
  std::ostringstream out;
  std::string error;
  EXPECT_TRUE(WriteSummary(vocab, model, &out, &error)) << error;
  return out.str();
}

DistributedOptions WorkerOptions(std::size_t num_clusters,
                                 const std::string& spool_tag) {
  DistributedOptions opts;
  opts.num_workers = 2;
  opts.compression.num_clusters = num_clusters;
  opts.compression.encoder = "naive";
  opts.spool_dir = UniqueDir(spool_tag);
  return opts;
}

/// The reference result every distributed run must reproduce bit for
/// bit: the in-process sharded compression of the same split.
std::string ShardedReferenceBytes(const QueryLog& log,
                                  std::size_t num_clusters,
                                  std::size_t num_shards) {
  LogROptions opts;
  opts.num_clusters = num_clusters;
  opts.num_shards = num_shards;
  opts.encoder = "naive";
  LogRSummary sharded = CompressSharded(log, opts);
  return Bytes(log.vocabulary(), sharded.Model());
}

TEST(DistributedTest, WorkerKilledMidJobRetriesToIdenticalSummary) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 4, "crash");

  // Clean run first (the reference), then a run where shard 2's first
  // worker SIGKILLs itself mid-job via the fault-injection hook.
  DistributedResult clean;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, WorkerOptions(6, "crash_clean"),
                                  &clean, &error))
      << error;

  ASSERT_EQ(::setenv(kDistributedCrashEnv, "2", 1), 0);
  DistributedResult crashed;
  const bool ok = CompressDistributed(
      shards, WorkerOptions(6, "crash_spool"), &crashed, &error);
  ::unsetenv(kDistributedCrashEnv);
  ASSERT_TRUE(ok) << error;

  // The killed attempt costs one retry on that shard — nothing else.
  EXPECT_EQ(crashed.workers_failed, 1u);
  EXPECT_EQ(crashed.workers_launched, shards.size() + 1);
  EXPECT_EQ(crashed.shards[2].attempts, 2);
  EXPECT_FALSE(crashed.shards[2].inprocess);
  for (std::size_t s = 0; s < crashed.shards.size(); ++s) {
    if (s != 2) {
      EXPECT_EQ(crashed.shards[s].attempts, 1) << s;
    }
  }
  EXPECT_EQ(Bytes(crashed.summary.vocabulary, *crashed.summary.model),
            Bytes(clean.summary.vocabulary, *clean.summary.model));
}

TEST(DistributedTest, ResumeReusesWarmSpool) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 4, "resume");
  DistributedOptions opts = WorkerOptions(6, "resume_spool");

  DistributedResult first;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, opts, &first, &error)) << error;
  const std::string reference =
      Bytes(first.summary.vocabulary, *first.summary.model);

  // Simulate a job killed after spooling all but one shard: drop one
  // summary and re-run the coordinator over the warm spool.
  ASSERT_EQ(std::remove(first.shards[1].summary_path.c_str()), 0);
  DistributedResult resumed;
  ASSERT_TRUE(CompressDistributed(shards, opts, &resumed, &error)) << error;
  EXPECT_EQ(resumed.workers_launched, 1u);
  for (std::size_t s = 0; s < resumed.shards.size(); ++s) {
    EXPECT_EQ(resumed.shards[s].reused, s != 1) << s;
    EXPECT_EQ(resumed.shards[s].attempts, s == 1 ? 1 : 0) << s;
  }
  EXPECT_EQ(Bytes(resumed.summary.vocabulary, *resumed.summary.model),
            reference);

  // reuse_spool = false must ignore the warm spool and recompress
  // everything — same bytes, all fresh attempts.
  opts.reuse_spool = false;
  DistributedResult cold;
  ASSERT_TRUE(CompressDistributed(shards, opts, &cold, &error)) << error;
  EXPECT_EQ(cold.workers_launched, shards.size());
  for (const ShardReport& r : cold.shards) EXPECT_FALSE(r.reused);
  EXPECT_EQ(Bytes(cold.summary.vocabulary, *cold.summary.model), reference);
}

TEST(DistributedTest, LastFailedAttemptFallsBackInProcess) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 2, "fallback");
  DistributedOptions opts = WorkerOptions(4, "fallback_spool");
  opts.max_retries = 0;

  // Shard 1's only worker SIGKILLs itself; with no retries left the
  // coordinator's last resort compresses it in-process and the job
  // still finishes with the sharded reference bytes.
  ASSERT_EQ(::setenv(kDistributedCrashEnv, "1", 1), 0);
  DistributedResult result;
  std::string error;
  const bool ok = CompressDistributed(shards, opts, &result, &error);

  // With the fallback disabled the job must fail loudly instead.
  opts.inprocess_fallback = false;
  opts.spool_dir = UniqueDir("fallback_spool2");
  DistributedResult failed;
  std::string failed_error;
  const bool failed_ok =
      CompressDistributed(shards, opts, &failed, &failed_error);
  ::unsetenv(kDistributedCrashEnv);

  ASSERT_TRUE(ok) << error;
  EXPECT_EQ(result.workers_failed, 1u);
  EXPECT_FALSE(result.shards[0].inprocess);
  EXPECT_TRUE(result.shards[1].inprocess);
  EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
            ShardedReferenceBytes(log, 4, 2));

  EXPECT_FALSE(failed_ok);
  EXPECT_NE(failed_error.find("exhausted 1 attempts"), std::string::npos)
      << failed_error;
}

/// Each shard file reopens by mmap as exactly its part of the split,
/// with the part's statistics as its trailer.
TEST(DistributedTest, ShardFilesHoldTheirParts) {
  const QueryLog log = BankLog();
  const LogView view(log);
  const std::string dir = UniqueDir("shard_files") + "/nested";
  std::vector<ShardFile> files;
  std::string error;
  ASSERT_TRUE(WriteShardFiles(view, 3, dir, "bank", &files, &error))
      << error;
  const std::vector<std::vector<std::size_t>> parts = PartitionIndices(view, 3);
  ASSERT_EQ(files.size(), parts.size());
  for (std::size_t s = 0; s < files.size(); ++s) {
    SCOPED_TRACE(files[s].path);
    const std::string index = "00" + std::to_string(s);
    EXPECT_EQ(files[s].path, dir + "/shard-" + index + ".logrl");
    MmapQueryLog shard;
    ASSERT_TRUE(MmapQueryLog::Open(files[s].path, &shard, &error)) << error;
    const QueryLog part = view.MaterializeSubset(parts[s]);
    std::string why;
    EXPECT_TRUE(SameQueryLog(LogView(shard).Materialize(), part, &why))
        << why;
    EXPECT_TRUE(SameDatasetSummary(shard.summary(),
                                   LogStatistics(part, "bank-s" + index),
                                   &why))
        << why;
    EXPECT_EQ(shard.summary().num_queries, part.TotalQueries());
    EXPECT_EQ(shard.summary().num_distinct_no_const, part.NumDistinct());
    EXPECT_EQ(shard.summary().num_features_no_const, part.NumFeatures());
    EXPECT_EQ(shard.summary().max_multiplicity, part.MaxMultiplicity());
    EXPECT_EQ(files[s].num_distinct, part.NumDistinct());
    EXPECT_EQ(files[s].num_queries, part.TotalQueries());
  }
}

/// An empty directory would put every "<dir>/shard-NNN.logrl" at the
/// filesystem root: the call is refused before anything is written.
TEST(DistributedTest, ShardFilesRefuseAnEmptyDir) {
  const QueryLog log = PocketLog();
  std::vector<ShardFile> files;
  std::string error;
  EXPECT_FALSE(WriteShardFiles(LogView(log), 2, "", "pocket", &files, &error));
  EXPECT_EQ(error, "distributed: shard directory is required");
  EXPECT_TRUE(files.empty());
  EXPECT_NE(::access("/shard-000.logrl", F_OK), 0);
}

TEST(DistributedTest, WorkerRejectsMissingShardFile) {
  DistributedWorkerOptions opts;
  opts.shard_path = UniqueDir("absent") + "/missing.logrl";
  opts.out_path = UniqueDir("absent") + "/missing.summary";
  opts.compression.num_clusters = 2;
  std::string error;
  EXPECT_FALSE(RunDistributedWorker(opts, &error));
  EXPECT_FALSE(error.empty());
}

TEST(DistributedTest, WorkerSpoolsALoadableSummary) {
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 2, "spool_one");
  DistributedWorkerOptions opts;
  opts.shard_path = shards[0];
  opts.out_path = UniqueDir("spool_one") + "/one.summary";
  opts.compression.num_clusters = 4;
  std::string error;
  ASSERT_TRUE(RunDistributedWorker(opts, &error)) << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummaryFile(opts.out_path, &loaded, &error)) << error;
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_STREQ(loaded.model->EncoderName(), "naive");
  EXPECT_LE(loaded.model->NumComponents(), 4u);
  EXPECT_GT(loaded.model->LogSize(), 0u);
}

}  // namespace
}  // namespace logr
