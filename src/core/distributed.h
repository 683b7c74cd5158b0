// Distributed compression: a restartable scatter/gather coordinator
// over worker processes (ROADMAP item: "compress each day, merge the
// week", scaled past one process).
//
// The shape follows the paper's own economics — summaries are
// kilobytes while the logs they compress are gigabytes — so the
// coordinator ships *work* out (one .logrl shard file per worker
// process) and ships *summaries* back through a spool directory:
//
//   coordinator                    workers (≤ num_workers at once)
//   ───────────                    ────────────────────────────────
//   scatter: spawn per shard  ──►  mmap-compress the shard zero-copy
//                                  (LogView path, naive encoder, the
//                                  sharded ClustersPerShard K), write
//                                  spool/<shard>.summary atomically
//   watch: exit status + timeout
//   retry: respawn a failed/hung shard (bounded), in-process as the
//          last resort
//   gather: read every spooled summary, MergeSummaries + Reconcile
//           down to K — bit-identical to the in-process sharded
//           compression of the same shard split
//
// Restartability falls out of the spool protocol: workers write
// summaries via tmp-file + rename (a killed worker can never leave a
// valid-looking partial), and a re-run coordinator revalidates and
// reuses whatever the previous run spooled, so a killed job resumes
// where it left off instead of starting over.
//
// Workers are processes, not threads, for fault isolation: a worker
// that crashes, hangs, or is OOM-killed loses one shard attempt, never
// the job. The coordinator forks each worker, and the child calls
// RunDistributedWorker directly. Forked children never touch the
// parent's thread pools (pthreads do not survive fork); every worker
// fits its shard with CompressShard, exactly like CompressSharded, so
// the distributed result is bit-deterministic for any worker count.
#ifndef LOGR_CORE_DISTRIBUTED_H_
#define LOGR_CORE_DISTRIBUTED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "workload/loader.h"
#include "workload/log_view.h"

namespace logr {

/// Environment variable for fault-injection tests and the CI smoke leg:
/// when set to a shard index, that shard's first-attempt worker
/// SIGKILLs itself mid-job (after opening its input, before spooling a
/// summary). Retries are unaffected, so the job must still complete
/// with the identical summary. It is the one test hook the library
/// reads from the environment, because `logr_cli distribute` has no
/// option for it: the CI smoke sets it on the CLI's environment, which
/// forked workers inherit. An option would widen the public API for a
/// test.
inline constexpr char kDistributedCrashEnv[] = "LOGR_DISTRIBUTE_CRASH";

struct DistributedOptions {
  /// Maximum concurrently running worker processes.
  std::size_t num_workers = 4;
  /// Compression parameters: num_clusters is the final K after the
  /// gather-side reconcile; method/seed/n_init are forwarded to
  /// every worker so per-shard fits match CompressSharded's. The
  /// encoder is ignored — shards merge through the naive family, and
  /// the merged output is always a naive summary (like `merge`). `pool`
  /// serves only the gather's reconcile; workers fit on CompressShard's
  /// thread-free pool.
  LogROptions compression;
  /// Directory the workers spool summaries into (created if absent).
  /// Re-running a coordinator over a warm spool reuses every valid
  /// summary already present (the resume path).
  std::string spool_dir;
  /// Retries per shard after its first failed attempt.
  int max_retries = 2;
  /// Wall-clock budget per worker attempt; a worker past it is killed
  /// and the shard retried. 0 disables the watchdog.
  double worker_timeout_seconds = 0.0;
  /// After the retry budget, compress the shard inside the coordinator
  /// instead of failing the job.
  bool inprocess_fallback = true;
  /// Reuse valid summaries already in the spool (resume). Off forces
  /// every shard to recompress.
  bool reuse_spool = true;
};

/// Per-shard outcome for reporting and tests.
struct ShardReport {
  std::string shard_path;
  std::string summary_path;
  int attempts = 0;        // worker processes launched for this shard
  bool reused = false;     // valid spooled summary found, no worker run
  bool inprocess = false;  // compressed by the coordinator's fallback
  bool timed_out = false;  // at least one attempt hit the watchdog
};

struct DistributedResult {
  /// The gathered summary: per-shard summaries merged and reconciled to
  /// compression.num_clusters (always tagged "naive").
  PersistedSummary summary;
  std::vector<ShardReport> shards;
  std::size_t workers_launched = 0;  // processes spawned, retries included
  std::size_t workers_failed = 0;    // attempts that died or timed out
  double total_seconds = 0.0;
};

/// What one worker does: mmap-open `shard_path` (.logrl), compress it
/// zero-copy with CompressShard under `compression`, and atomically
/// write its summary (v4) to `out_path`. The coordinator builds these
/// from DistributedOptions for each shard attempt.
struct DistributedWorkerOptions {
  std::string shard_path;
  std::string out_path;
  /// The shard fit's options, passed to CompressShard unchanged:
  /// num_clusters is the per-shard K (ClustersPerShard), and method,
  /// seed and n_init are the coordinator's.
  LogROptions compression;
  /// Position of the shard in the coordinator's scatter order — only
  /// consulted by the kDistributedCrashEnv fault injection.
  std::size_t shard_index = 0;
  /// 0 for the first attempt; retries increment. Fault injection only
  /// fires on attempt 0.
  int attempt = 0;
};

/// Worker entry point, shared by the forked children and the
/// coordinator's in-process fallback: compress the shard with
/// CompressShard (fork-safe, and bit-identical to CompressSharded's
/// per-shard fits) and spool the summary. Returns false (and fills
/// `error`) on any I/O or validation failure.
bool RunDistributedWorker(const DistributedWorkerOptions& opts,
                          std::string* error);

/// Scatter, watch, retry, gather. `shard_paths` are .logrl files,
/// typically from `logr_cli split` or ListBinaryLogShards; scatter order
/// follows the given order, and each shard spools to
/// <spool_dir>/<shard basename>.summary (".logrl" stripped), a path
/// stable across runs (the resume contract). Returns false (and fills
/// `error`) when a shard exhausts its retries with the fallback
/// disabled, or on spool/merge I/O failures. On success `out->summary`
/// holds the reconciled summary and `out->shards` the per-shard
/// provenance.
bool CompressDistributed(const std::vector<std::string>& shard_paths,
                         const DistributedOptions& opts,
                         DistributedResult* out, std::string* error);

/// mkdir -p for spool and shard directories: creates `dir` and any
/// missing parents, tolerating ones that already exist. Returns false
/// (and fills `error`) on a filesystem refusal.
bool EnsureDirectory(const std::string& dir, std::string* error);

/// The Table-1 block of a log that never went through the SQL funnel,
/// as a shard file's trailer carries it: queries, distinct templates,
/// max multiplicity, features and features per query; the non-SELECT
/// and parse-error counts stay 0.
DatasetSummary LogStatistics(const QueryLog& log, std::string name);

/// One .logrl file written by WriteShardFiles.
struct ShardFile {
  std::string path;
  std::size_t num_distinct = 0;
  std::uint64_t num_queries = 0;
};

/// Writes `log` as the shard files `distribute` scatters: its distinct
/// templates are partitioned by PartitionIndices (core/sharded.h; the
/// split `compress --shards` compresses), and each non-empty part is
/// written as `<dir>/shard-NNN.logrl` (NNN its index, three digits or
/// more) with the trailer LogStatistics(part, "<name>-sNNN"). `dir` is
/// created if missing. Fills `files` in shard order. Returns false (and
/// fills `error`) when `dir` is empty or on a filesystem failure.
bool WriteShardFiles(const LogView& log, std::size_t num_shards,
                     const std::string& dir, const std::string& name,
                     std::vector<ShardFile>* files, std::string* error);

}  // namespace logr

#endif  // LOGR_CORE_DISTRIBUTED_H_
