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
// the job. Two spawn modes exist — exec mode (worker_command names a
// binary re-invoked as `... worker <flags>`, the CLI's arrangement) and
// fork mode (empty worker_command; the child runs RunDistributedWorker
// directly, which tests and benches use to avoid depending on an
// installed binary). Forked children never touch the parent's thread
// pools (pthreads do not survive fork); every worker compresses with a
// serial pool, exactly like ShardedCompressor's per-shard pipelines, so
// the distributed result is bit-deterministic for any worker count.
#ifndef LOGR_CORE_DISTRIBUTED_H_
#define LOGR_CORE_DISTRIBUTED_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/serialization.h"
#include "workload/loader.h"
#include "workload/log_view.h"

namespace logr {

/// Environment variable for fault-injection tests and the CI smoke leg:
/// when set to a shard index, that shard's first-attempt worker
/// SIGKILLs itself mid-job (after opening its input, before spooling a
/// summary). Retries are unaffected, so the job must still complete
/// with the identical summary. It is the one test hook the library
/// reads from the environment, because it has to cross an exec: the
/// coordinator starts `logr_cli worker` processes that inherit the
/// environment but see no option of the caller. Carrying it in the
/// worker argv instead would add a wire-format field and an option.
inline constexpr char kDistributedCrashEnv[] = "LOGR_DISTRIBUTE_CRASH";

struct DistributedOptions {
  /// Maximum concurrently running worker processes.
  std::size_t num_workers = 4;
  /// Compression parameters: num_clusters is the final K after the
  /// gather-side reconcile; method/backend/seed/n_init are forwarded to
  /// every worker so per-shard fits match ShardedCompressor's. The
  /// encoder is ignored — shards merge through the naive family, and
  /// the merged output is always a naive summary (like `merge`).
  LogROptions compression;
  /// Directory the workers spool summaries into (created if absent).
  /// Re-running a coordinator over a warm spool reuses every valid
  /// summary already present (the resume path).
  std::string spool_dir;
  /// Exec-mode worker argv prefix, e.g. {"/path/to/logr_cli"}: shard
  /// workers run `<prefix...> worker <flags>`. Empty selects fork mode
  /// (the child calls RunDistributedWorker in-process).
  std::vector<std::string> worker_command;
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
/// zero-copy with the naive encoder at `num_clusters`, and atomically
/// write the v2 summary to `out_path`. The coordinator builds these
/// from DistributedOptions; the CLI's hidden `worker` subcommand parses
/// them back off argv (see WorkerArgv / ParseWorkerArgv).
struct DistributedWorkerOptions {
  std::string shard_path;
  std::string out_path;
  std::size_t num_clusters = 1;
  /// Clustering backend name (ClusteringMethodName or a registry name).
  std::string method = "KmeansEuclidean";
  std::uint64_t seed = 17;
  int n_init = 4;
  /// Position of the shard in the coordinator's scatter order — only
  /// consulted by the kDistributedCrashEnv fault injection.
  std::size_t shard_index = 0;
  /// 0 for the first attempt; retries increment. Fault injection only
  /// fires on attempt 0.
  int attempt = 0;
};

/// The worker flag list for `opts` (no argv0 / subcommand): the wire
/// format between coordinator and exec-mode workers.
std::vector<std::string> WorkerArgv(const DistributedWorkerOptions& opts);

/// Parses what WorkerArgv produced. Returns false (and fills `error`)
/// on unknown flags or missing required ones (--shard, --out).
bool ParseWorkerArgv(const std::vector<std::string>& args,
                     DistributedWorkerOptions* opts, std::string* error);

/// Worker entry point, shared by the CLI `worker` subcommand, fork-mode
/// children, and the coordinator's in-process fallback: compress the
/// shard and spool the summary. Runs with a serial pool uncondition-
/// ally (fork-safe, and bit-identical to ShardedCompressor's per-shard
/// pipelines). Returns false (and fills `error`) on any I/O or
/// validation failure.
bool RunDistributedWorker(const DistributedWorkerOptions& opts,
                          std::string* error);

class DistributedCompressor {
 public:
  /// `shard_paths` are .logrl files, typically from `logr_cli split` or
  /// ListBinaryLogShards; scatter order follows the given order.
  DistributedCompressor(std::vector<std::string> shard_paths,
                        DistributedOptions opts);

  /// Scatter, watch, retry, gather. Returns false (and fills `error`)
  /// when a shard exhausts its retries with the fallback disabled, or
  /// on spool/merge I/O failures. On success `out->summary` holds the
  /// reconciled summary and `out->shards` the per-shard provenance.
  bool Run(DistributedResult* out, std::string* error);

  /// Spool path for a shard: <spool_dir>/<shard basename>.summary
  /// (".logrl" stripped). Stable across runs — the resume contract.
  static std::string SummaryPathFor(const std::string& spool_dir,
                                    const std::string& shard_path);

 private:
  std::vector<std::string> shard_paths_;
  DistributedOptions opts_;
};

/// Convenience wrapper: DistributedCompressor(shards, opts).Run(...).
bool CompressDistributed(const std::vector<std::string>& shard_paths,
                         const DistributedOptions& opts,
                         DistributedResult* out, std::string* error);

/// mkdir -p for spool and shard directories: creates `dir` and any
/// missing parents, tolerating ones that already exist. Returns false
/// (and fills `error`) on a filesystem refusal.
bool EnsureDirectory(const std::string& dir, std::string* error);

/// The Table-1 block of a log that never went through the SQL funnel,
/// as a shard file's trailer carries it: queries, distinct templates
/// and features (the constant-free values fill the with-constants
/// columns too), max multiplicity and features per query; the funnel
/// and conjunctive/rewritable counts stay 0.
DatasetSummary LogStatistics(const QueryLog& log, std::string name);

/// One .logrl file written by WriteShardFiles.
struct ShardFile {
  std::string path;
  std::size_t num_distinct = 0;
  std::uint64_t num_queries = 0;
};

/// Writes `log` as the shard files `distribute` scatters: its distinct
/// templates are partitioned by ShardedCompressor::PartitionIndices (the
/// split `compress --shards` compresses), and each non-empty part is
/// written as `<dir>/shard-NNN.logrl` (NNN its index, three digits or
/// more) with the trailer LogStatistics(part, "<name>-sNNN"). `dir` is
/// created if missing. Fills `files` in shard order. Returns false (and
/// fills `error`) on a filesystem failure.
bool WriteShardFiles(const LogView& log, std::size_t num_shards,
                     ShardPolicy policy, const std::string& dir,
                     const std::string& name, std::vector<ShardFile>* files,
                     std::string* error);

}  // namespace logr

#endif  // LOGR_CORE_DISTRIBUTED_H_
