#include "core/distributed.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>
#include <utility>

#include "cluster/clusterer.h"
#include "core/logr_compressor.h"
#include "core/sharded.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/stopwatch.h"
#include "util/subprocess.h"
#include "workload/binary_log.h"

#if !defined(_WIN32)
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#endif

namespace logr {

namespace {

bool Fail(std::string* error, const std::string& message) {
  if (error != nullptr) *error = "distributed: " + message;
  return false;
}

/// Fault injection for the worker-kill tests and the CI smoke leg: the
/// first attempt at the shard named by LOGR_DISTRIBUTE_CRASH dies by
/// SIGKILL — the harshest exit (no unwind, no atexit), which the
/// atomic spool protocol must shrug off.
void MaybeCrashForTest(std::size_t shard_index, int attempt) {
  if (attempt != 0) return;
  const char* env = std::getenv(kDistributedCrashEnv);
  if (env == nullptr) return;
  std::uint64_t index = 0;
  if (!ParseUint64(env, 0, UINT64_MAX, &index)) return;
  if (index != shard_index) return;
#if !defined(_WIN32)
  ::raise(SIGKILL);
#else
  std::abort();
#endif
}

std::string Basename(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

bool EnsureDirectory(const std::string& dir, std::string* error) {
#if !defined(_WIN32)
  std::string partial;
  std::size_t pos = 0;
  while (pos <= dir.size()) {
    const std::size_t slash = dir.find('/', pos);
    partial = slash == std::string::npos ? dir : dir.substr(0, slash);
    pos = slash == std::string::npos ? dir.size() + 1 : slash + 1;
    if (partial.empty()) continue;
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      return Fail(error, "cannot create directory " + partial);
    }
  }
  return true;
#else
  (void)dir;
  return Fail(error, "directory creation needs a POSIX filesystem");
#endif
}

DatasetSummary LogStatistics(const QueryLog& log, std::string name) {
  DatasetSummary stats;
  stats.name = std::move(name);
  stats.num_queries = log.TotalQueries();
  stats.num_distinct = log.NumDistinct();
  stats.num_distinct_no_const = log.NumDistinct();
  stats.max_multiplicity = log.MaxMultiplicity();
  stats.num_features = log.NumFeatures();
  stats.num_features_no_const = log.NumFeatures();
  stats.avg_features_per_query = log.AvgFeaturesPerQuery();
  return stats;
}

bool WriteShardFiles(const LogView& log, std::size_t num_shards,
                     ShardPolicy policy, const std::string& dir,
                     const std::string& name, std::vector<ShardFile>* files,
                     std::string* error) {
  files->clear();
  if (!EnsureDirectory(dir, error)) return false;
  const std::vector<std::vector<std::size_t>> parts =
      ShardedCompressor::PartitionIndices(log, num_shards, policy);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    const QueryLog part = log.MaterializeSubset(parts[s]);
    char index[32];
    std::snprintf(index, sizeof(index), "%03zu", s);
    ShardFile file;
    file.path = dir + "/shard-" + index + ".logrl";
    file.num_distinct = part.NumDistinct();
    file.num_queries = part.TotalQueries();
    if (!BinaryLogWriter::WriteFile(
            file.path, part, LogStatistics(part, name + "-s" + index),
            error)) {
      return false;
    }
    files->push_back(std::move(file));
  }
  return true;
}

std::vector<std::string> WorkerArgv(const DistributedWorkerOptions& opts) {
  return {
      "--shard",       opts.shard_path,
      "--out",         opts.out_path,
      "--clusters",    std::to_string(opts.num_clusters),
      "--method",      opts.method,
      "--seed",        std::to_string(opts.seed),
      "--n-init",      std::to_string(opts.n_init),
      "--shard-index", std::to_string(opts.shard_index),
      "--attempt",     std::to_string(opts.attempt),
  };
}

bool ParseWorkerArgv(const std::vector<std::string>& args,
                     DistributedWorkerOptions* opts, std::string* error) {
  *opts = DistributedWorkerOptions();
  const std::vector<Flag> flags = {
      {"--shard", &opts->shard_path},
      {"--out", &opts->out_path},
      {"--clusters", &opts->num_clusters, 1},
      {"--method", &opts->method},
      {"--seed", &opts->seed},
      {"--n-init", &opts->n_init, 1},
      {"--shard-index", &opts->shard_index},
      {"--attempt", &opts->attempt},
  };
  std::string flag_error;
  if (!ParseFlags(args, flags, Positionals(), &flag_error)) {
    return Fail(error, "worker argv: " + flag_error);
  }
  if (opts->shard_path.empty() || opts->out_path.empty()) {
    return Fail(error, "worker needs --shard and --out");
  }
  return true;
}

bool RunDistributedWorker(const DistributedWorkerOptions& opts,
                          std::string* error) {
  MmapQueryLog shard;
  if (!MmapQueryLog::Open(opts.shard_path, &shard, error)) return false;
  MaybeCrashForTest(opts.shard_index, opts.attempt);
  if (shard.NumDistinct() == 0) {
    return Fail(error, "empty shard " + opts.shard_path);
  }

  // The per-shard fit mirrors ShardedCompressor's shard pipelines
  // exactly: naive encoder, serial pool, no refinement — so the
  // gathered merge is bit-identical to the in-process sharded run.
  // The serial pool is also the fork-safety requirement: a fork-mode
  // child must never wait on the parent's pool threads, which do not
  // exist after fork.
  ThreadPool serial(0);
  LogROptions copts;
  copts.num_clusters = opts.num_clusters;
  copts.seed = opts.seed;
  copts.n_init = opts.n_init;
  copts.encoder = "naive";
  copts.pool = &serial;
  if (!ParseBackendName(opts.method, &copts)) {
    return Fail(error, "unknown clustering backend " + opts.method);
  }

  LogView view(shard);
  const LogRSummary summary = Compress(view, copts);

  // WriteSummaryFile spools atomically (pid-suffixed temp + rename), so
  // a worker killed at any instant leaves either nothing or a temp file
  // — never a truncated summary the coordinator could mistake for done.
  return WriteSummaryFile(opts.out_path, view.vocabulary(), summary.Model(),
                          error);
}

DistributedCompressor::DistributedCompressor(
    std::vector<std::string> shard_paths, DistributedOptions opts)
    : shard_paths_(std::move(shard_paths)), opts_(std::move(opts)) {}

std::string DistributedCompressor::SummaryPathFor(
    const std::string& spool_dir, const std::string& shard_path) {
  std::string name = Basename(shard_path);
  const std::string ext = ".logrl";
  if (name.size() > ext.size() &&
      name.compare(name.size() - ext.size(), ext.size(), ext) == 0) {
    name.resize(name.size() - ext.size());
  }
  const bool needs_slash = !spool_dir.empty() && spool_dir.back() != '/';
  return spool_dir + (needs_slash ? "/" : "") + name + ".summary";
}

bool DistributedCompressor::Run(DistributedResult* out, std::string* error) {
  Stopwatch timer;
  *out = DistributedResult();
  const std::size_t n = shard_paths_.size();
  if (n == 0) return Fail(error, "no shard files to scatter");
  if (opts_.spool_dir.empty()) return Fail(error, "spool_dir is required");
  if (opts_.num_workers == 0) return Fail(error, "num_workers must be >= 1");
  if (!opts_.worker_command.empty() && !SubprocessSupported()) {
    return Fail(error, "worker processes are unsupported on this platform");
  }
  if (!EnsureDirectory(opts_.spool_dir, error)) return false;

  out->shards.resize(n);
  std::set<std::string> seen;
  for (std::size_t s = 0; s < n; ++s) {
    out->shards[s].shard_path = shard_paths_[s];
    out->shards[s].summary_path =
        SummaryPathFor(opts_.spool_dir, shard_paths_[s]);
    if (!seen.insert(out->shards[s].summary_path).second) {
      return Fail(error, "shard basenames collide in the spool: " +
                             out->shards[s].summary_path);
    }
  }

  const std::size_t shard_k =
      ShardedCompressor::ClustersPerShard(opts_.compression.num_clusters, n);
  const std::string method = BackendName(opts_.compression);

  enum class State { kPending, kRunning, kDone };
  std::vector<State> state(n, State::kPending);
  std::vector<PersistedSummary> parts(n);

  // Resume pass: anything a previous run spooled (and that still parses
  // as a summary) is done before a single worker spawns.
  if (opts_.reuse_spool) {
    for (std::size_t s = 0; s < n; ++s) {
      std::string ignored;
      if (ReadSummaryFile(out->shards[s].summary_path, &parts[s],
                          &ignored)) {
        state[s] = State::kDone;
        out->shards[s].reused = true;
      }
    }
  }

  struct Running {
    std::size_t shard;
    long pid;
    double started;  // coordinator clock, seconds
  };
  std::vector<Running> running;

  auto worker_opts = [&](std::size_t s) {
    DistributedWorkerOptions w;
    w.shard_path = shard_paths_[s];
    w.out_path = out->shards[s].summary_path;
    w.num_clusters = shard_k;
    w.method = method;
    w.seed = opts_.compression.seed;
    w.n_init = opts_.compression.n_init;
    w.shard_index = s;
    w.attempt = out->shards[s].attempts;
    return w;
  };

  auto launch = [&](std::size_t s) -> bool {
    const DistributedWorkerOptions w = worker_opts(s);
    ++out->shards[s].attempts;
    ++out->workers_launched;
    long pid = -1;
    std::string spawn_error;
    if (!opts_.worker_command.empty()) {
      std::vector<std::string> argv = opts_.worker_command;
      argv.push_back("worker");
      for (std::string& flag : WorkerArgv(w)) argv.push_back(std::move(flag));
      pid = SpawnProcess(argv, &spawn_error);
    } else {
      pid = ForkProcess(
          [w]() -> int {
            std::string worker_error;
            if (RunDistributedWorker(w, &worker_error)) return 0;
            std::fprintf(stderr, "worker (shard %zu): %s\n", w.shard_index,
                         worker_error.c_str());
            return 1;
          },
          &spawn_error);
    }
    if (pid < 0) return Fail(error, spawn_error);
    state[s] = State::kRunning;
    running.push_back({s, pid, timer.ElapsedSeconds()});
    return true;
  };

  auto kill_all = [&]() {
    for (const Running& r : running) KillProcess(r.pid);
    running.clear();
  };

  // One shard attempt failed (bad exit, bad summary, or watchdog).
  // Returns false only when the shard is out of options and the job
  // must fail.
  auto handle_failure = [&](std::size_t s, bool timed_out) -> bool {
    ++out->workers_failed;
    if (timed_out) out->shards[s].timed_out = true;
    std::remove(out->shards[s].summary_path.c_str());
    if (out->shards[s].attempts <= opts_.max_retries) {
      state[s] = State::kPending;
      return true;
    }
    if (opts_.inprocess_fallback) {
      // Last resort: the coordinator compresses the shard itself. The
      // attempt counter advances so fault injection cannot re-fire.
      DistributedWorkerOptions w = worker_opts(s);
      ++out->shards[s].attempts;
      std::string worker_error;
      if (RunDistributedWorker(w, &worker_error) &&
          ReadSummaryFile(out->shards[s].summary_path, &parts[s],
                          &worker_error)) {
        state[s] = State::kDone;
        out->shards[s].inprocess = true;
        return true;
      }
      return Fail(error, "shard " + shard_paths_[s] +
                             " failed even in-process: " + worker_error);
    }
    return Fail(error, "shard " + shard_paths_[s] + " exhausted " +
                           std::to_string(out->shards[s].attempts) +
                           " attempts");
  };

  for (;;) {
    // Scatter: top the running set up to num_workers from the pending
    // shards, in shard order.
    for (std::size_t s = 0; s < n && running.size() < opts_.num_workers;
         ++s) {
      if (state[s] != State::kPending) continue;
      if (!launch(s)) {
        kill_all();
        return false;
      }
    }
    if (running.empty()) break;  // nothing running, nothing pending

    // Watch: reap finished workers, kill ones past the watchdog.
    bool progressed = false;
    for (std::size_t r = 0; r < running.size();) {
      const std::size_t s = running[r].shard;
      ProcessStatus status;
      bool finished = false;
      bool timed_out = false;
      if (TryWaitProcess(running[r].pid, &status)) {
        finished = true;
      } else if (opts_.worker_timeout_seconds > 0.0 &&
                 timer.ElapsedSeconds() - running[r].started >
                     opts_.worker_timeout_seconds) {
        KillProcess(running[r].pid);
        finished = true;
        timed_out = true;
      }
      if (!finished) {
        ++r;
        continue;
      }
      progressed = true;
      running.erase(running.begin() + r);
      std::string read_error;
      if (!timed_out && status.Success() &&
          ReadSummaryFile(out->shards[s].summary_path, &parts[s],
                          &read_error)) {
        state[s] = State::kDone;
      } else if (!handle_failure(s, timed_out)) {
        kill_all();
        return false;
      }
    }
    if (!progressed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  // Gather: every shard is spooled; merge + reconcile down to K. Part
  // order is shard order, but MergeSummaries orders components
  // canonically, so any order gives the same bits.
  if (!MergeSummaries(parts, opts_.compression.num_clusters,
                      opts_.compression.pool, &out->summary, error)) {
    return false;
  }
  out->total_seconds = timer.ElapsedSeconds();
  return true;
}

bool CompressDistributed(const std::vector<std::string>& shard_paths,
                         const DistributedOptions& opts,
                         DistributedResult* out, std::string* error) {
  return DistributedCompressor(shard_paths, opts).Run(out, error);
}

}  // namespace logr
