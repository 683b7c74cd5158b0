// Tests for the distributed scatter/gather coordinator
// (core/distributed.h): bit-identity of the process-per-shard path with
// in-process sharded compression and the offline summary merge on the
// paper-shaped generators, worker crash-retry (SIGKILL mid-job loses an
// attempt, never the job), coordinator resume from a warm spool,
// exec-mode spawn-failure fallback, the coordinator/worker argv wire
// format, and the shard files `logr_cli split` writes.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "core/distributed.h"
#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "core/sharded.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "util/subprocess.h"
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
#if defined(_WIN32)
  const std::string pid = "0";
#else
  const std::string pid = std::to_string(::getpid());
#endif
  return ::testing::TempDir() + "logr_dist_" + tag + "_" + pid;
}

/// Writes `log` as `logr_cli split` does, under a fresh directory.
std::vector<std::string> WriteShards(const QueryLog& log,
                                     std::size_t num_shards,
                                     const std::string& tag) {
  std::vector<ShardFile> files;
  std::string error;
  EXPECT_TRUE(WriteShardFiles(LogView(log), num_shards,
                              ShardPolicy::kHashDistinct, UniqueDir(tag), tag,
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

DistributedOptions ForkModeOptions(std::size_t num_clusters,
                                   const std::string& spool_tag) {
  DistributedOptions opts;
  opts.num_workers = 2;
  opts.compression.num_clusters = num_clusters;
  opts.compression.encoder = "naive";
  opts.spool_dir = UniqueDir(spool_tag);
  // Empty worker_command = fork mode: no installed binary needed.
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

TEST(DistributedTest, MatchesInProcessShardingBitForBitPocket) {
  if (!SubprocessSupported()) GTEST_SKIP() << "no subprocess support";
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 4, "pocket_id");
  DistributedOptions opts = ForkModeOptions(6, "pocket_id_spool");
  DistributedResult result;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, opts, &result, &error)) << error;

  EXPECT_EQ(result.shards.size(), shards.size());
  EXPECT_EQ(result.workers_launched, shards.size());
  EXPECT_EQ(result.workers_failed, 0u);
  for (const ShardReport& r : result.shards) {
    EXPECT_EQ(r.attempts, 1) << r.shard_path;
    EXPECT_FALSE(r.reused) << r.shard_path;
    EXPECT_FALSE(r.inprocess) << r.shard_path;
  }
  // Worker processes + spool files + merge must equal the one-process
  // sharded pipeline exactly — same bytes, not approximately.
  EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
            ShardedReferenceBytes(log, 6, 4));

  // Third leg of the identity: loading the spooled per-shard summaries
  // and merging offline reproduces the same bytes again.
  std::vector<PersistedSummary> parts(result.shards.size());
  for (std::size_t s = 0; s < result.shards.size(); ++s) {
    ASSERT_TRUE(ReadSummaryFile(result.shards[s].summary_path, &parts[s],
                                &error))
        << error;
  }
  PersistedSummary merged;
  ASSERT_TRUE(
      MergeSummaries(parts, 6, opts.compression.pool, &merged, &error))
      << error;
  EXPECT_EQ(Bytes(merged.vocabulary, *merged.model),
            ShardedReferenceBytes(log, 6, 4));
}

TEST(DistributedTest, MatchesInProcessShardingBitForBitBank) {
  if (!SubprocessSupported()) GTEST_SKIP() << "no subprocess support";
  QueryLog log = BankLog();
  const std::vector<std::string> shards = WriteShards(log, 3, "bank_id");
  DistributedOptions opts = ForkModeOptions(5, "bank_id_spool");
  DistributedResult result;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, opts, &result, &error)) << error;
  EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
            ShardedReferenceBytes(log, 5, 3));
}

TEST(DistributedTest, WorkerKilledMidJobRetriesToIdenticalSummary) {
  if (!SubprocessSupported()) GTEST_SKIP() << "no subprocess support";
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 4, "crash");

  // Clean run first (the reference), then a run where shard 2's first
  // worker SIGKILLs itself mid-job via the fault-injection hook.
  DistributedResult clean;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, ForkModeOptions(6, "crash_clean"),
                                  &clean, &error))
      << error;

  ASSERT_EQ(::setenv(kDistributedCrashEnv, "2", 1), 0);
  DistributedResult crashed;
  const bool ok = CompressDistributed(
      shards, ForkModeOptions(6, "crash_spool"), &crashed, &error);
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
  if (!SubprocessSupported()) GTEST_SKIP() << "no subprocess support";
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 4, "resume");
  DistributedOptions opts = ForkModeOptions(6, "resume_spool");

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

TEST(DistributedTest, ExecSpawnFailureFallsBackInProcess) {
  if (!SubprocessSupported()) GTEST_SKIP() << "no subprocess support";
  QueryLog log = PocketLog();
  const std::vector<std::string> shards = WriteShards(log, 2, "noexec");
  DistributedOptions opts = ForkModeOptions(4, "noexec_spool");
  opts.worker_command = {"/nonexistent/logr_worker_binary"};
  opts.max_retries = 1;

  // Every exec attempt dies (exit 127); the coordinator's last resort
  // compresses in-process and the job still finishes with the sharded
  // reference bytes.
  DistributedResult result;
  std::string error;
  ASSERT_TRUE(CompressDistributed(shards, opts, &result, &error)) << error;
  EXPECT_GE(result.workers_failed, shards.size());
  for (const ShardReport& r : result.shards) {
    EXPECT_TRUE(r.inprocess) << r.shard_path;
  }
  EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
            ShardedReferenceBytes(log, 4, 2));

  // With the fallback disabled the job must fail loudly instead.
  opts.inprocess_fallback = false;
  opts.spool_dir = UniqueDir("noexec_spool2");
  DistributedResult failed;
  error.clear();
  EXPECT_FALSE(CompressDistributed(shards, opts, &failed, &error));
  EXPECT_FALSE(error.empty());
}

TEST(DistributedTest, WorkerArgvRoundTrips) {
  DistributedWorkerOptions opts;
  opts.shard_path = "/tmp/in.logrl";
  opts.out_path = "/tmp/out.summary";
  opts.num_clusters = 9;
  opts.method = "hamming";
  opts.seed = 123;
  opts.n_init = 7;
  opts.shard_index = 3;
  opts.attempt = 2;

  DistributedWorkerOptions parsed;
  std::string error;
  ASSERT_TRUE(ParseWorkerArgv(WorkerArgv(opts), &parsed, &error)) << error;
  EXPECT_EQ(parsed.shard_path, opts.shard_path);
  EXPECT_EQ(parsed.out_path, opts.out_path);
  EXPECT_EQ(parsed.num_clusters, opts.num_clusters);
  EXPECT_EQ(parsed.method, opts.method);
  EXPECT_EQ(parsed.seed, opts.seed);
  EXPECT_EQ(parsed.n_init, opts.n_init);
  EXPECT_EQ(parsed.shard_index, opts.shard_index);
  EXPECT_EQ(parsed.attempt, opts.attempt);

  DistributedWorkerOptions bad;
  EXPECT_FALSE(ParseWorkerArgv({"--bogus", "1"}, &bad, &error));
  EXPECT_FALSE(ParseWorkerArgv({"--out", "/tmp/x"}, &bad, &error));
}

/// The int-typed worker flags are bounded at INT_MAX: 2^32 + 1 would
/// otherwise narrow to 1 and run silently.
TEST(DistributedTest, WorkerArgvRejectsIntOverflow) {
  DistributedWorkerOptions opts;
  opts.shard_path = "in.logrl";
  opts.out_path = "out.summary";
  opts.n_init = INT_MAX;
  opts.attempt = INT_MAX;
  DistributedWorkerOptions parsed;
  std::string error;
  ASSERT_TRUE(ParseWorkerArgv(WorkerArgv(opts), &parsed, &error)) << error;
  EXPECT_EQ(parsed.n_init, INT_MAX);
  EXPECT_EQ(parsed.attempt, INT_MAX);

  for (const char* flag : {"--n-init", "--attempt"}) {
    std::vector<std::string> args = WorkerArgv(opts);
    args.push_back(flag);
    args.push_back("4294967297");
    error.clear();
    EXPECT_FALSE(ParseWorkerArgv(args, &parsed, &error)) << flag;
    EXPECT_NE(error.find(flag), std::string::npos) << error;
    EXPECT_NE(error.find("2147483647]"), std::string::npos) << error;
  }
}

/// Each shard file reopens by mmap as exactly its part of the split,
/// with the part's statistics as its trailer.
TEST(DistributedTest, ShardFilesHoldTheirParts) {
  const QueryLog log = BankLog();
  const LogView view(log);
  const std::string dir = UniqueDir("shard_files") + "/nested";
  std::vector<ShardFile> files;
  std::string error;
  ASSERT_TRUE(WriteShardFiles(view, 3, ShardPolicy::kContiguousRange, dir,
                              "bank", &files, &error))
      << error;
  const std::vector<std::vector<std::size_t>> parts =
      ShardedCompressor::PartitionIndices(view, 3,
                                          ShardPolicy::kContiguousRange);
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
    EXPECT_EQ(shard.summary().num_distinct, part.NumDistinct());
    EXPECT_EQ(shard.summary().num_features_no_const, part.NumFeatures());
    EXPECT_EQ(shard.summary().max_multiplicity, part.MaxMultiplicity());
    EXPECT_EQ(files[s].num_distinct, part.NumDistinct());
    EXPECT_EQ(files[s].num_queries, part.TotalQueries());
  }
}

TEST(DistributedTest, WorkerRejectsMissingShardFile) {
  DistributedWorkerOptions opts;
  opts.shard_path = UniqueDir("absent") + "/missing.logrl";
  opts.out_path = UniqueDir("absent") + "/missing.summary";
  opts.num_clusters = 2;
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
  opts.num_clusters = 4;
  std::string error;
  ASSERT_TRUE(RunDistributedWorker(opts, &error)) << error;
  PersistedSummary loaded;
  ASSERT_TRUE(ReadSummaryFile(opts.out_path, &loaded, &error)) << error;
  ASSERT_NE(loaded.model, nullptr);
  EXPECT_EQ(loaded.encoder, "naive");
  EXPECT_LE(loaded.model->NumComponents(), 4u);
  EXPECT_GT(loaded.model->LogSize(), 0u);
}

}  // namespace
}  // namespace logr
