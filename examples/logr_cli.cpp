// logr_cli — command-line front end for the LogR library.
//
//   logr_cli compress [--clusters K] [--method NAME] [--encoder NAME]
//                     [--refine-patterns N] [--shards S]
//                     [--shard-policy hash|range] [--out FILE] [LOG]
//       Reads SQL statements (one per line; an optional "COUNT<TAB>"
//       prefix gives a multiplicity) from LOG or stdin, compresses them,
//       and writes a summary file. --encoder picks the summarizer:
//       naive (default), refined (naive + corr_rank patterns, Sec. 6.4;
//       --refine-patterns caps the per-cluster budget and applies to
//       this encoder only), pattern
//       (per-cluster max-ent pattern encodings, Sec. 2.3.1; in-memory
//       only), or any encoder registered in EncoderRegistry.
//       --shards S > 1 compresses shard-wise in parallel and merges the
//       per-shard mixtures (bit-deterministic for any thread count;
//       mergeable encoders only).
//       LOG may also be a binary .logrl file written by `convert` (or
//       LogLoader::WriteBinary): it is detected by magic, mmap-loaded,
//       and compressed without re-parsing any SQL.
//   logr_cli convert [--name NAME] [--out FILE.logrl] [LOG]
//       Reads a text SQL log (same line format as compress) and writes
//       the logr-log v1 binary columnar file (feature-id columns +
//       vocabulary + Table-1 stats; see workload/binary_log.h). The
//       default output is LOG.logrl.
//   logr_cli split [--shards N] [--shard-policy hash|range]
//                  [--out-dir DIR] [--name NAME] [LOG|LOG.logrl]
//       Partitions a log's distinct templates into N binary .logrl
//       shard files (same stable policies as compress --shards), ready
//       for `distribute` or for per-node compression. Empty shards are
//       dropped, so fewer than N files can appear.
//   logr_cli distribute [--workers W] [--clusters K] [--method NAME]
//                       [--spool DIR] [--retries R] [--timeout SEC]
//                       [--no-resume] [--no-fallback] [--out FILE]
//                       SHARD.logrl...|SHARD_DIR
//       Scatter/gather compression over worker processes: each .logrl
//       shard (listed explicitly or enumerated from a directory) is
//       compressed by a separate worker process that mmap-reads it
//       zero-copy and spools a summary into --spool; the coordinator
//       retries crashed or hung workers (--retries per shard, --timeout
//       watchdog), reuses valid spooled summaries on re-run (resume),
//       and merges everything into one summary — bit-identical to
//       `compress --shards` over the same split. The output is always
//       a naive summary, like `merge`.
//   logr_cli merge [--clusters K] [--out FILE] SUMMARY...
//       Merges summary files written by compress (e.g. one per day or
//       per shard) into one, reconciling down to K clusters by
//       nearest-centroid-chain agglomeration when the pooled components
//       exceed K ("compress each day, merge the week"). Only mergeable
//       summaries (naive, refined) pool; the output is always a naive
//       summary.
//   logr_cli info SUMMARY
//       Prints the summary's encoder, clusters, weights and verbosities.
//   logr_cli estimate SUMMARY TERM [TERM ...]
//       Estimates how many logged queries contain all the given
//       features. A TERM is CLAUSE:TEXT (e.g. "WHERE:status = ?") or a
//       numeric feature id from the codebook ("#7" or "7"); arguments
//       may also be comma-separated lists ("0,2"). Malformed terms are
//       rejected loudly and the set is deduplicated, exactly like the
//       serve protocol (both parse via workload/predicate.h).
//   logr_cli query [--timeout MS] [--retries N] ENDPOINT REQUEST...
//       Sends one request line to a running logr_serve daemon and
//       prints the response, e.g.
//         logr_cli query tcp:127.0.0.1:7979 estimate prod FROM:orders
//       --timeout bounds the connect and the request round-trip;
//       --retries retries (with exponential backoff + jitter) only
//       connect failures and "err busy" shed replies — a request that
//       was delivered is never re-sent. Exit status is 0 for an "ok"
//       response, 1 otherwise.
//   logr_cli visualize SUMMARY
//       Renders each cluster as a shaded SQL template (Fig. 10 style).
//   logr_cli demo
//       Compresses a built-in synthetic workload end to end.
//
// Methods: kmeans (default), manhattan, minkowski, hamming, hierarchical,
// adaptive, or any backend name registered in ClustererRegistry.
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/distributed.h"
#include "core/encoder.h"
#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "core/sharded.h"
#include "core/visualize.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "serve/client.h"
#include "util/subprocess.h"
#include "workload/binary_log.h"
#include "workload/loader.h"
#include "workload/predicate.h"

namespace {

using namespace logr;

int Usage() {
  std::fprintf(stderr,
               "usage: logr_cli compress [--clusters K] [--method NAME] "
               "[--encoder NAME] [--refine-patterns N] [--shards S] "
               "[--shard-policy hash|range] [--out FILE] [LOG|LOG.logrl]\n"
               "       logr_cli convert [--name NAME] [--out FILE.logrl] "
               "[LOG]\n"
               "       logr_cli split [--shards N] "
               "[--shard-policy hash|range] [--out-dir DIR] [--name NAME] "
               "[LOG|LOG.logrl]\n"
               "       logr_cli distribute [--workers W] [--clusters K] "
               "[--method NAME] [--spool DIR] [--retries R] "
               "[--timeout SEC] [--no-resume] [--no-fallback] "
               "[--out FILE] SHARD.logrl...|SHARD_DIR\n"
               "       logr_cli merge [--clusters K] [--out FILE] "
               "SUMMARY...\n"
               "       logr_cli info SUMMARY\n"
               "       logr_cli estimate SUMMARY TERM...\n"
               "       logr_cli query [--timeout MS] [--retries N] "
               "ENDPOINT REQUEST...\n"
               "       logr_cli visualize SUMMARY\n"
               "       logr_cli demo\n");
  return 2;
}

// Strict integer parse into [min_value, max_value]: rejects trailing
// garbage ("8x"), non-numbers ("five"), which atoll would silently read
// as 0, and out-of-range values, which strtoll would silently clamp to
// LLONG_MAX. Int-typed flags pass INT_MAX so their static_cast<int>
// cannot wrap.
bool ParseCount(const char* text, long long min_value, long long max_value,
                long long* out) {
  char* end = nullptr;
  errno = 0;
  long long parsed = std::strtoll(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0' ||
      parsed < min_value || parsed > max_value) {
    return false;
  }
  *out = parsed;
  return true;
}

/// Feeds a text log (one statement per line, optional "COUNT<TAB>"
/// prefix; an explicit count of 0 skips the line) through `loader`.
/// CRLF line endings read the same as LF. Sets `*lines` to the number of
/// non-empty lines read. Returns false, after printing which line did
/// it, when the counts summed over the log would pass UINT64_MAX.
bool ReadTextLog(std::istream& in, LogLoader* loader, std::uint64_t* lines) {
  std::string line;
  std::uint64_t line_no = 0;
  std::uint64_t total = 0;
  *lines = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::uint64_t count = 1;
    std::string sql_text = line;
    std::size_t tab = line.find('\t');
    if (tab != std::string::npos) {
      long long parsed;
      if (ParseCount(line.substr(0, tab).c_str(), 0, LLONG_MAX, &parsed)) {
        count = static_cast<std::uint64_t>(parsed);
        sql_text = line.substr(tab + 1);
      }
    }
    if (count > UINT64_MAX - total) {
      std::fprintf(stderr,
                   "line %llu: count %llu takes the log's total past %llu\n",
                   static_cast<unsigned long long>(line_no),
                   static_cast<unsigned long long>(count),
                   static_cast<unsigned long long>(UINT64_MAX));
      return false;
    }
    total += count;
    loader->AddSql(sql_text, count);
    ++*lines;
  }
  return true;
}

void PrintFunnel(std::uint64_t lines, const DatasetSummary& stats) {
  std::printf("read %llu lines: %llu SELECT queries, %llu non-SELECT, "
              "%llu unparseable\n",
              static_cast<unsigned long long>(lines),
              static_cast<unsigned long long>(stats.num_queries),
              static_cast<unsigned long long>(stats.num_non_select),
              static_cast<unsigned long long>(stats.num_parse_errors));
}

/// Resolves --encoder, printing the registered names on failure.
const Encoder* ResolveEncoderArg(const std::string& name) {
  const Encoder* encoder = EncoderRegistry::Instance().Find(name);
  if (encoder == nullptr) {
    std::fprintf(stderr, "unknown encoder %s; registered encoders:\n",
                 name.c_str());
    for (const std::string& n : EncoderRegistry::Instance().Names()) {
      std::fprintf(stderr, "  %s\n", n.c_str());
    }
  }
  return encoder;
}

/// Loads LOG (text SQL or binary .logrl) into `log`/`binary`, binding
/// `view` to whichever backs it. A text log prints its funnel line; a
/// binary one prints its banner and stored funnel when
/// `announce_binary` is set. Returns 0 on success, the process exit
/// code otherwise.
int LoadAnyLog(const std::string& in_path, bool announce_binary,
               QueryLog* log, MmapQueryLog* binary, LogView* view) {
  if (!in_path.empty() && IsBinaryLogFile(in_path)) {
    std::string error;
    if (!MmapQueryLog::Open(in_path, binary, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    if (announce_binary) {
      const DatasetSummary& stats = binary->summary();
      std::printf("loaded binary log %s (%s): %llu SELECT queries, %zu "
                  "distinct templates, %zu features\n",
                  in_path.c_str(), binary->mapped() ? "mmap" : "eager",
                  static_cast<unsigned long long>(binary->TotalQueries()),
                  binary->NumDistinct(), binary->NumFeatures());
      std::printf("stored funnel: %llu SELECT queries, %llu non-SELECT, "
                  "%llu unparseable\n",
                  static_cast<unsigned long long>(stats.num_queries),
                  static_cast<unsigned long long>(stats.num_non_select),
                  static_cast<unsigned long long>(stats.num_parse_errors));
    }
    *view = LogView(*binary);
    return 0;
  }
  std::ifstream file;
  std::istream* in = &std::cin;
  if (!in_path.empty()) {
    file.open(in_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
      return 1;
    }
    in = &file;
  }
  LogLoader loader;
  std::uint64_t lines;
  if (!ReadTextLog(*in, &loader, &lines)) return 1;
  PrintFunnel(lines, loader.Summary("cli"));
  *log = loader.TakeLog();
  *view = LogView(*log);
  return 0;
}

int RunCompress(int argc, char** argv) {
  std::size_t clusters = 8;
  std::size_t refine = 0;
  bool refine_given = false;
  std::size_t shards = 1;
  ShardPolicy shard_policy = ShardPolicy::kHashDistinct;
  std::string method = "kmeans";
  std::string encoder_name = "naive";  // LogROptions::encoder's default
  std::string out_path = "summary.logr";
  std::string in_path;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--clusters" && i + 1 < argc) {
      long long parsed;
      if (!ParseCount(argv[++i], 1, LLONG_MAX, &parsed)) {
        std::fprintf(stderr, "--clusters must be an integer >= 1\n");
        return 2;
      }
      clusters = static_cast<std::size_t>(parsed);
    } else if (arg == "--method" && i + 1 < argc) {
      method = argv[++i];
    } else if (arg == "--encoder" && i + 1 < argc) {
      encoder_name = argv[++i];
    } else if (arg == "--refine-patterns" && i + 1 < argc) {
      long long parsed;
      if (!ParseCount(argv[++i], 0, LLONG_MAX, &parsed)) {
        std::fprintf(stderr, "--refine-patterns must be an integer >= 0\n");
        return 2;
      }
      refine = static_cast<std::size_t>(parsed);
      refine_given = true;
    } else if (arg == "--shards" && i + 1 < argc) {
      long long parsed;
      if (!ParseCount(argv[++i], 1, LLONG_MAX, &parsed)) {
        std::fprintf(stderr, "--shards must be an integer >= 1\n");
        return 2;
      }
      shards = static_cast<std::size_t>(parsed);
    } else if (arg == "--shard-policy" && i + 1 < argc) {
      if (!ParseShardPolicy(argv[++i], &shard_policy)) {
        std::fprintf(stderr, "--shard-policy must be hash or range\n");
        return 2;
      }
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      in_path = arg;
    } else {
      return Usage();
    }
  }

  LogROptions opts;
  opts.num_clusters = clusters;
  opts.encoder = encoder_name;
  opts.refine_patterns = refine;
  opts.num_shards = shards;
  opts.shard_policy = shard_policy;
  const Encoder* encoder = ResolveEncoderArg(opts.encoder);
  if (encoder == nullptr) return 2;
  if (refine_given && std::string(encoder->Name()) != "refined") {
    std::fprintf(stderr,
                 "--refine-patterns applies only to --encoder refined "
                 "(the encoder is %s)\n",
                 encoder->Name());
    return 2;
  }
  if (shards > 1 && !encoder->Mergeable()) {
    std::fprintf(stderr,
                 "--shards requires a mergeable encoder (naive, refined); "
                 "%s summaries cannot be pooled\n",
                 encoder->Name());
    return 2;
  }

  // One of `log` / `binary` backs `view`; both outlive the compression.
  // A binary log is mmap'd and compressed straight off the mapping,
  // skipping the SQL parse stage and any Materialize() copy.
  QueryLog log;
  MmapQueryLog binary;
  LogView view;
  if (int rc = LoadAnyLog(in_path, /*announce_binary=*/true, &log, &binary,
                          &view)) {
    return rc;
  }
  if (view.TotalQueries() == 0) {
    std::fprintf(stderr, "no usable queries\n");
    return 1;
  }
  LogRSummary summary;
  if (method == "adaptive") {
    if (shards > 1) {
      std::fprintf(stderr, "--shards does not combine with adaptive yet\n");
      return 2;
    }
    summary = CompressAdaptive(view, clusters, opts);
  } else {
    if (!ParseBackendName(method, &opts)) {
      std::fprintf(stderr, "unknown method %s; registered backends:\n",
                   method.c_str());
      for (const std::string& name : ClustererRegistry::Instance().Names()) {
        std::fprintf(stderr, "  %s\n", name.c_str());
      }
      return 2;
    }
    summary = Compress(view, opts);
  }
  const WorkloadModel& model = summary.Model();
  std::printf("compressed [%s]: %zu clusters, error %.4f nats, verbosity "
              "%zu (from %zu distinct templates, %zu features)\n",
              model.EncoderName(), model.NumComponents(), model.Error(),
              model.TotalVerbosity(), view.NumDistinct(), view.NumFeatures());
  if (model.Error() != model.BaseError()) {
    std::size_t extra = 0;
    for (std::size_t c = 0; c < model.NumComponents(); ++c) {
      extra += model.ComponentPatterns(c).size();
    }
    std::printf("refined: error %.4f nats (naive %.4f) with %zu extra "
                "patterns\n",
                model.Error(), model.BaseError(), extra);
  }

  std::string error;
  if (!WriteSummaryFile(out_path, view.vocabulary(), model, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int RunConvert(int argc, char** argv) {
  std::string out_path;
  std::string in_path;
  std::string name = "cli";
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      name = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      in_path = arg;
    } else {
      return Usage();
    }
  }
  if (!in_path.empty() && IsBinaryLogFile(in_path)) {
    std::fprintf(stderr, "%s is already a binary log\n", in_path.c_str());
    return 2;
  }
  if (out_path.empty()) {
    out_path = in_path.empty() ? "log.logrl" : in_path + ".logrl";
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (!in_path.empty()) {
    file.open(in_path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", in_path.c_str());
      return 1;
    }
    in = &file;
  }
  LogLoader loader;
  std::uint64_t lines;
  if (!ReadTextLog(*in, &loader, &lines)) return 1;
  DatasetSummary stats = loader.Summary(name);
  PrintFunnel(lines, stats);
  std::string error;
  if (!loader.WriteBinary(out_path, name, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu distinct templates, %zu features) — feed it "
              "back to `logr_cli compress` to skip the parse stage\n",
              out_path.c_str(), loader.log().NumDistinct(),
              loader.log().NumFeatures());
  return 0;
}

int RunMerge(int argc, char** argv) {
  std::size_t clusters = 0;  // 0 = keep every pooled component
  std::string out_path = "merged.logr";
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--clusters" && i + 1 < argc) {
      long long parsed;
      if (!ParseCount(argv[++i], 1, LLONG_MAX, &parsed)) {
        std::fprintf(stderr, "--clusters must be an integer >= 1\n");
        return 2;
      }
      clusters = static_cast<std::size_t>(parsed);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      inputs.push_back(arg);
    } else {
      return Usage();
    }
  }
  if (inputs.empty()) return Usage();

  LogROptions opts;
  std::vector<PersistedSummary> parts(inputs.size());
  std::string error;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!ReadSummaryFile(inputs[i], &parts[i], &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
  }
  PersistedSummary merged;
  if (!MergeSummaries(parts, clusters, opts, &merged, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const WorkloadModel& model = *merged.model;
  std::printf("merged %zu summaries: %zu clusters, %llu queries, error "
              "%.4f nats, verbosity %zu\n",
              parts.size(), model.NumComponents(),
              static_cast<unsigned long long>(model.LogSize()),
              model.Error(), model.TotalVerbosity());
  if (!WriteSummaryFile(out_path, merged.vocabulary, model, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int RunSplit(int argc, char** argv) {
  std::size_t shards = 4;
  ShardPolicy shard_policy = ShardPolicy::kHashDistinct;
  std::string out_dir = "shards";
  std::string name = "cli";
  std::string in_path;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      long long parsed;
      if (!ParseCount(argv[++i], 1, LLONG_MAX, &parsed)) {
        std::fprintf(stderr, "--shards must be an integer >= 1\n");
        return 2;
      }
      shards = static_cast<std::size_t>(parsed);
    } else if (arg == "--shard-policy" && i + 1 < argc) {
      if (!ParseShardPolicy(argv[++i], &shard_policy)) {
        std::fprintf(stderr, "--shard-policy must be hash or range\n");
        return 2;
      }
    } else if (arg == "--out-dir" && i + 1 < argc) {
      out_dir = argv[++i];
    } else if (arg == "--name" && i + 1 < argc) {
      name = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      in_path = arg;
    } else {
      return Usage();
    }
  }

  QueryLog log;
  MmapQueryLog binary;
  LogView view;
  if (int rc = LoadAnyLog(in_path, /*announce_binary=*/false, &log, &binary,
                          &view)) {
    return rc;
  }
  if (view.NumDistinct() == 0) {
    std::fprintf(stderr, "no usable queries\n");
    return 1;
  }

  std::string dir_error;
  if (!EnsureDirectory(out_dir, &dir_error)) {
    std::fprintf(stderr, "%s\n", dir_error.c_str());
    return 1;
  }
  const std::vector<std::vector<std::size_t>> parts =
      ShardedCompressor::PartitionIndices(view, shards, shard_policy);
  for (std::size_t s = 0; s < parts.size(); ++s) {
    QueryLog sublog = view.MaterializeSubset(parts[s]);
    DatasetSummary stats;
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), "-s%03zu", s);
    stats.name = name + suffix;
    stats.num_queries = sublog.TotalQueries();
    stats.num_distinct = sublog.NumDistinct();
    stats.num_distinct_no_const = sublog.NumDistinct();
    stats.max_multiplicity = sublog.MaxMultiplicity();
    stats.num_features = sublog.NumFeatures();
    stats.num_features_no_const = sublog.NumFeatures();
    stats.avg_features_per_query = sublog.AvgFeaturesPerQuery();
    char file_name[64];
    std::snprintf(file_name, sizeof(file_name), "/shard-%03zu.logrl", s);
    const std::string path = out_dir + file_name;
    std::string error;
    if (!BinaryLogWriter::WriteFile(path, sublog, stats, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu distinct, %llu queries)\n", path.c_str(),
                sublog.NumDistinct(),
                static_cast<unsigned long long>(sublog.TotalQueries()));
  }
  std::printf("split %zu distinct templates into %zu shards under %s — "
              "compress them with `logr_cli distribute %s`\n",
              view.NumDistinct(), parts.size(), out_dir.c_str(),
              out_dir.c_str());
  return 0;
}

int RunDistribute(int argc, char** argv) {
  DistributedOptions opts;
  opts.compression.num_clusters = 8;
  opts.spool_dir = "spool";
  std::string method = "kmeans";
  std::string out_path = "distributed.logr";
  std::vector<std::string> inputs;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    long long parsed;
    if (arg == "--workers" && i + 1 < argc) {
      if (!ParseCount(argv[++i], 1, LLONG_MAX, &parsed)) {
        std::fprintf(stderr, "--workers must be an integer >= 1\n");
        return 2;
      }
      opts.num_workers = static_cast<std::size_t>(parsed);
    } else if (arg == "--clusters" && i + 1 < argc) {
      if (!ParseCount(argv[++i], 1, LLONG_MAX, &parsed)) {
        std::fprintf(stderr, "--clusters must be an integer >= 1\n");
        return 2;
      }
      opts.compression.num_clusters = static_cast<std::size_t>(parsed);
    } else if (arg == "--method" && i + 1 < argc) {
      method = argv[++i];
    } else if (arg == "--spool" && i + 1 < argc) {
      opts.spool_dir = argv[++i];
    } else if (arg == "--retries" && i + 1 < argc) {
      if (!ParseCount(argv[++i], 0, INT_MAX, &parsed)) {
        std::fprintf(stderr, "--retries must be an integer in [0, %d]\n",
                     INT_MAX);
        return Usage();
      }
      opts.max_retries = static_cast<int>(parsed);
    } else if (arg == "--timeout" && i + 1 < argc) {
      if (!ParseCount(argv[++i], 1, LLONG_MAX, &parsed)) {
        std::fprintf(stderr, "--timeout must be an integer >= 1 (seconds)\n");
        return 2;
      }
      opts.worker_timeout_seconds = static_cast<double>(parsed);
    } else if (arg == "--no-resume") {
      opts.reuse_spool = false;
    } else if (arg == "--no-fallback") {
      opts.inprocess_fallback = false;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      inputs.push_back(arg);
    } else {
      return Usage();
    }
  }
  if (inputs.empty()) return Usage();
  if (!ParseBackendName(method, &opts.compression)) {
    std::fprintf(stderr, "unknown method %s\n", method.c_str());
    return 2;
  }

  // Positional arguments: .logrl shard files, or directories of them.
  std::vector<std::string> shard_paths;
  for (const std::string& input : inputs) {
    if (IsBinaryLogFile(input)) {
      shard_paths.push_back(input);
      continue;
    }
    std::vector<std::string> listed;
    std::string error;
    if (!ListBinaryLogShards(input, &listed, &error) || listed.empty()) {
      std::fprintf(stderr,
                   "%s is neither a .logrl file nor a directory "
                   "containing them\n",
                   input.c_str());
      return 2;
    }
    for (std::string& p : listed) shard_paths.push_back(std::move(p));
  }

  // Workers re-exec this binary in the hidden `worker` mode.
  std::string self = CurrentExecutablePath();
  if (self.empty()) self = argv[0];
  opts.worker_command = {self};

  DistributedResult result;
  std::string error;
  if (!CompressDistributed(shard_paths, opts, &result, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  for (const ShardReport& r : result.shards) {
    const char* how = r.reused ? "reused spooled summary"
                     : r.inprocess ? "compressed in-process (fallback)"
                                   : "compressed by worker";
    std::printf("  %s: %s (%d attempt%s%s)\n", r.shard_path.c_str(), how,
                r.attempts, r.attempts == 1 ? "" : "s",
                r.timed_out ? ", hit watchdog" : "");
  }
  const WorkloadModel& model = *result.summary.model;
  std::printf("distributed %zu shards over %zu workers in %.2fs "
              "(%zu spawned, %zu failed): %zu clusters, %llu queries, "
              "error %.4f nats\n",
              result.shards.size(), opts.num_workers, result.total_seconds,
              result.workers_launched, result.workers_failed,
              model.NumComponents(),
              static_cast<unsigned long long>(model.LogSize()),
              model.Error());
  if (!WriteSummaryFile(out_path, result.summary.vocabulary, model,
                        &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

/// Hidden subcommand: one scatter worker (spawned by `distribute`,
/// never typed by hand — absent from Usage() on purpose).
int RunWorker(int argc, char** argv) {
  std::vector<std::string> args;
  for (int i = 2; i < argc; ++i) args.push_back(argv[i]);
  DistributedWorkerOptions opts;
  std::string error;
  if (!ParseWorkerArgv(args, &opts, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (!RunDistributedWorker(opts, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  return 0;
}

int RunInfo(int argc, char** argv) {
  if (argc < 3) return Usage();
  PersistedSummary s;
  std::string error;
  if (!ReadSummaryFile(argv[2], &s, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const WorkloadModel& model = *s.model;
  std::printf("summary %s [%s]: %zu features, %zu clusters, %llu queries\n",
              argv[2], model.EncoderName(), s.vocabulary.size(),
              model.NumComponents(),
              static_cast<unsigned long long>(model.LogSize()));
  for (std::size_t c = 0; c < model.NumComponents(); ++c) {
    std::printf("  cluster %zu: weight %.4f, |L| %llu, verbosity %zu\n", c,
                model.ComponentWeight(c),
                static_cast<unsigned long long>(model.ComponentLogSize(c)),
                model.ComponentVerbosity(c));
  }
  return 0;
}

int RunEstimate(int argc, char** argv) {
  if (argc < 4) return Usage();
  PersistedSummary s;
  std::string error;
  if (!ReadSummaryFile(argv[2], &s, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  // The canonical parser (shared with the serve protocol) accepts both
  // CLAUSE:TEXT terms and numeric feature ids, rejects malformed terms
  // loudly, and sorts + dedupes the result. Each argument may itself be
  // a comma-separated list, the same syntax the protocol accepts.
  std::vector<std::string> terms;
  for (int i = 3; i < argc; ++i) {
    for (std::string& t : SplitPredicateList(argv[i])) {
      terms.push_back(std::move(t));
    }
  }
  ParsedPredicate pred;
  if (!ParsePredicate(terms, s.vocabulary, &pred, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (!pred.missing.empty()) {
    for (const std::string& m : pred.missing) {
      std::printf("feature %s never occurs in the summarized log; "
                  "estimate 0\n",
                  m.c_str());
    }
    return 0;
  }
  std::printf("est[ count ] = %.2f of %llu queries (marginal %.6f)\n",
              s.model->EstimateCount(pred.features),
              static_cast<unsigned long long>(s.model->LogSize()),
              s.model->EstimateMarginal(pred.features));
  return 0;
}

int RunQuery(int argc, char** argv) {
  RetryOptions retry;
  int i = 2;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--timeout" && i + 1 < argc) {
      long long ms = 0;
      if (!ParseCount(argv[++i], 0, INT_MAX, &ms)) {
        std::fprintf(stderr, "query: bad --timeout '%s'\n", argv[i]);
        return Usage();
      }
      // One deadline covers both phases: a hung connect and a hung
      // response are the same outage to the caller.
      retry.connect_timeout_ms = static_cast<int>(ms);
      retry.request_timeout_ms = static_cast<int>(ms);
    } else if (arg == "--retries" && i + 1 < argc) {
      long long n = 0;
      if (!ParseCount(argv[++i], 0, INT_MAX, &n)) {
        std::fprintf(stderr, "query: bad --retries '%s'\n", argv[i]);
        return Usage();
      }
      retry.max_retries = static_cast<int>(n);
    } else {
      break;
    }
  }
  if (argc - i < 2) return Usage();
  const std::string endpoint = argv[i++];
  // The remaining args are one request line; joining them back lets the
  // shell split "estimate prod WHERE:status = ?" naturally.
  std::string request;
  for (int first = i; i < argc; ++i) {
    if (i > first) request += " ";
    request += argv[i];
  }
  const QueryOutcome outcome = QueryWithRetry(endpoint, request, retry);
  if (!outcome.ok) {
    std::fprintf(stderr, "%s (after %d attempt%s)\n",
                 outcome.error.c_str(), outcome.attempts,
                 outcome.attempts == 1 ? "" : "s");
    return 1;
  }
  std::printf("%s\n", outcome.response.c_str());
  return outcome.response.rfind("ok", 0) == 0 ? 0 : 1;
}

int RunVisualize(int argc, char** argv) {
  if (argc < 3) return Usage();
  PersistedSummary s;
  std::string error;
  if (!ReadSummaryFile(argv[2], &s, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::fputs(RenderMixture(s.vocabulary, *s.model).c_str(), stdout);
  return 0;
}

int RunDemo() {
  PocketDataOptions gen;
  gen.num_distinct = 200;
  gen.total_queries = 100000;
  std::vector<LogEntry> entries = GeneratePocketDataLog(gen);
  LogLoader loader = LoadEntries(entries);
  QueryLog log = loader.TakeLog();
  LogROptions opts;
  opts.num_clusters = 6;
  LogRSummary summary = Compress(log, opts);
  const WorkloadModel& model = summary.Model();
  std::printf("demo: %llu queries -> %zu clusters, error %.3f nats, "
              "verbosity %zu\n",
              static_cast<unsigned long long>(log.TotalQueries()),
              model.NumComponents(), model.Error(), model.TotalVerbosity());
  std::string error;
  if (!WriteSummaryFile("demo_summary.logr", log.vocabulary(), model,
                        &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::printf("wrote demo_summary.logr — try:\n"
              "  logr_cli info demo_summary.logr\n"
              "  logr_cli estimate demo_summary.logr \"FROM:messages\"\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "compress") == 0) return RunCompress(argc, argv);
  if (std::strcmp(argv[1], "convert") == 0) return RunConvert(argc, argv);
  if (std::strcmp(argv[1], "split") == 0) return RunSplit(argc, argv);
  if (std::strcmp(argv[1], "distribute") == 0) {
    return RunDistribute(argc, argv);
  }
  if (std::strcmp(argv[1], "worker") == 0) return RunWorker(argc, argv);
  if (std::strcmp(argv[1], "merge") == 0) return RunMerge(argc, argv);
  if (std::strcmp(argv[1], "info") == 0) return RunInfo(argc, argv);
  if (std::strcmp(argv[1], "estimate") == 0) return RunEstimate(argc, argv);
  if (std::strcmp(argv[1], "query") == 0) return RunQuery(argc, argv);
  if (std::strcmp(argv[1], "visualize") == 0) return RunVisualize(argc, argv);
  if (std::strcmp(argv[1], "demo") == 0) return RunDemo();
  return Usage();
}
