// logr_cli — command-line front end for the LogR library.
//
//   logr_cli compress [--clusters K] [--method NAME] [--encoder NAME]
//                     [--refine-patterns N] [--shards S] [--out FILE]
//                     [LOG]
//       Reads SQL statements (one per line; an optional "COUNT<TAB>"
//       prefix gives a multiplicity) from LOG or stdin, compresses them,
//       and writes a summary file. --encoder picks the summarizer:
//       naive (default), refined (naive + corr_rank patterns, Sec. 6.4;
//       --refine-patterns caps the per-cluster budget and applies to
//       this encoder only), pattern
//       (per-cluster max-ent pattern encodings, Sec. 2.3.1; summaries
//       persist, but do not merge).
//       --shards S > 1 splits the distinct templates into S shards by a
//       stable hash, compresses them in parallel and merges the
//       per-shard mixtures (bit-deterministic for any thread count;
//       mergeable encoders only).
//       LOG may also be a binary .logrl file written by `convert` (or
//       LogLoader::WriteBinary): it is detected by magic, mmap-loaded,
//       and compressed without re-parsing any SQL.
//   logr_cli convert [--name NAME] [--out FILE.logrl] [LOG]
//       Reads a text SQL log (same line format as compress) and writes
//       the logr-log v1 binary columnar file (feature-id columns +
//       vocabulary + funnel; see workload/binary_log.h). The
//       default output is LOG.logrl.
//   logr_cli split [--shards N] [--out-dir DIR] [--name NAME]
//                  [LOG|LOG.logrl]
//       Partitions a log's distinct templates into N binary .logrl
//       shard files (the same stable hash split as compress --shards),
//       ready for `distribute` or for per-node compression. Empty shards
//       are dropped, so fewer than N files can appear. DIR must not be
//       empty.
//   logr_cli distribute [--workers W] [--clusters K] [--method NAME]
//                       [--spool DIR] [--retries R] [--timeout SEC]
//                       [--no-resume] [--no-fallback] [--out FILE]
//                       SHARD.logrl...|SHARD_DIR
//       Scatter/gather compression over worker processes: each .logrl
//       shard (listed explicitly or enumerated from a directory) is
//       compressed by a forked worker process that mmap-reads it
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
//       Sends one request line to a running logr_serve daemon at
//       ENDPOINT (the grammar `logr_serve --listen` takes,
//       serve/endpoint.h) and prints the response, e.g.
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
// Methods: kmeans (default; also spelled KmeansEuclidean), manhattan,
// minkowski, hamming, hierarchical, adaptive.
//
// Every subcommand parses its flags with one strict rule (util/flags.h):
// an integer flag takes decimal digits only, within the range its error
// names; an unknown flag, a missing or bad value, or a stray argument
// exits 2 with the subcommand's usage line.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
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
#include "util/flags.h"
#include "workload/binary_log.h"
#include "workload/loader.h"
#include "workload/predicate.h"

namespace {

using namespace logr;

/// One row of the subcommand table.
struct Command {
  const char* name;
  /// The usage line after "logr_cli ".
  const char* usage;
  /// The body. It opens with its flag table and positional bounds for
  /// ParseArgs, and returns the exit code.
  int (*run)(const Command& self, int argc, char** argv);
};

/// Parses a subcommand's argv[2..] against its flag table and positional
/// bounds. On a usage error prints it with the row's usage line and
/// returns false; the caller exits 2.
bool ParseArgs(const Command& self, int argc, char** argv,
               const std::vector<Flag>& flags, const Positionals& positional) {
  std::string error;
  if (ParseFlags({argv + 2, argv + argc}, flags, positional, &error)) {
    return true;
  }
  std::fprintf(stderr, "logr_cli %s: %s\nusage: logr_cli %s\n", self.name,
               error.c_str(), self.usage);
  return false;
}

/// Prints a runtime error; returns its exit code.
int Fail(const std::string& error) {
  std::fprintf(stderr, "%s\n", error.c_str());
  return 1;
}

/// Prints that `name` is no known `kind`, and the names that are.
void PrintUnknown(const char* kind, const std::string& name,
                  const std::vector<const char*>& names) {
  std::fprintf(stderr, "unknown %s %s; known %ss:\n", kind, name.c_str(),
               kind);
  for (const char* n : names) std::fprintf(stderr, "  %s\n", n);
}

/// Resolves --method into `opts`, listing the methods on failure, with
/// `adaptive` among them for `compress`, which also takes it.
bool ResolveMethodArg(const std::string& method, bool list_adaptive,
                      LogROptions* opts) {
  if (ParseClusteringMethod(method, &opts->method)) return true;
  std::vector<const char*> names;
  for (ClusteringMethod m :
       {ClusteringMethod::kKMeansEuclidean,
        ClusteringMethod::kSpectralManhattan,
        ClusteringMethod::kSpectralMinkowski,
        ClusteringMethod::kSpectralHamming,
        ClusteringMethod::kHierarchicalAverage}) {
    names.push_back(ClusteringMethodName(m));
  }
  if (list_adaptive) names.push_back("adaptive");
  PrintUnknown("method", method, names);
  return false;
}

/// Reads the text log at `path` (stdin when empty) into `loader` and
/// prints its funnel line. Returns 0 on success, the exit code otherwise.
int ReadText(const std::string& path, LogLoader* loader) {
  std::ifstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
  }
  std::uint64_t lines = 0;
  std::string error;
  if (!ReadTextLog(path.empty() ? std::cin : file,
                   [&](std::string_view sql, std::uint64_t count) {
                     loader->AddSql(sql, count);
                     ++lines;
                   },
                   &error)) {
    return Fail(error);
  }
  const DatasetSummary stats = loader->Summary("cli");
  std::printf("read %llu lines: %llu SELECT queries, %llu non-SELECT, "
              "%llu unparseable\n",
              static_cast<unsigned long long>(lines),
              static_cast<unsigned long long>(stats.num_queries),
              static_cast<unsigned long long>(stats.num_non_select),
              static_cast<unsigned long long>(stats.num_parse_errors));
  return 0;
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
    if (!MmapQueryLog::Open(in_path, binary, &error)) return Fail(error);
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
  LogLoader loader;
  if (int rc = ReadText(in_path, &loader)) return rc;
  *log = loader.TakeLog();
  *view = LogView(*log);
  return 0;
}

/// The one LOG argument compress, convert and split take ("" = stdin).
std::string OnlyPath(const std::vector<std::string>& paths) {
  return paths.empty() ? std::string() : paths[0];
}

int RunCompress(const Command& self, int argc, char** argv) {
  LogROptions opts;
  opts.num_clusters = 8;
  std::optional<std::size_t> refine;
  std::string method = "kmeans";
  std::string out_path = "summary.logr";
  std::vector<std::string> paths;
  if (!ParseArgs(self, argc, argv,
                 {{"--clusters", &opts.num_clusters, 1},
                  {"--method", &method},
                  {"--encoder", &opts.encoder},
                  {"--refine-patterns", &refine},
                  {"--shards", &opts.num_shards, 1},
                  {"--out", &out_path}},
                 {&paths, 0, 1})) {
    return 2;
  }
  opts.refine_patterns = refine.value_or(0);
  Encoder encoder = Encoder::kNaive;
  if (!ParseEncoder(opts.encoder, &encoder)) {
    PrintUnknown("encoder", opts.encoder,
                 {EncoderName(Encoder::kNaive), EncoderName(Encoder::kRefined),
                  EncoderName(Encoder::kPattern)});
    return 2;
  }
  if (refine && encoder != Encoder::kRefined) {
    std::fprintf(stderr,
                 "--refine-patterns applies only to --encoder refined "
                 "(the encoder is %s)\n",
                 EncoderName(encoder));
    return 2;
  }
  if (opts.num_shards > 1 && !Mergeable(encoder)) {
    std::fprintf(stderr,
                 "--shards requires a mergeable encoder (naive, refined); "
                 "%s summaries cannot be pooled\n",
                 EncoderName(encoder));
    return 2;
  }
  const bool adaptive = method == "adaptive";
  if (adaptive && opts.num_shards > 1) {
    std::fprintf(stderr, "--shards does not combine with adaptive yet\n");
    return 2;
  }
  if (!adaptive && !ResolveMethodArg(method, /*list_adaptive=*/true, &opts)) {
    return 2;
  }

  // One of `log` / `binary` backs `view`; both outlive the compression.
  // A binary log is mmap'd and compressed straight off the mapping,
  // skipping the SQL parse stage and any heap copy.
  QueryLog log;
  MmapQueryLog binary;
  LogView view;
  if (int rc = LoadAnyLog(OnlyPath(paths), /*announce_binary=*/true, &log,
                          &binary, &view)) {
    return rc;
  }
  if (view.TotalQueries() == 0) {
    std::fprintf(stderr, "no usable queries\n");
    return 1;
  }
  const LogRSummary summary =
      adaptive ? CompressAdaptive(view, opts) : Compress(view, opts);
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
    return Fail(error);
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int RunConvert(const Command& self, int argc, char** argv) {
  std::string out_path;
  std::string name = "cli";
  std::vector<std::string> paths;
  if (!ParseArgs(self, argc, argv, {{"--out", &out_path}, {"--name", &name}},
                 {&paths, 0, 1})) {
    return 2;
  }
  const std::string in_path = OnlyPath(paths);
  if (!in_path.empty() && IsBinaryLogFile(in_path)) {
    std::fprintf(stderr, "%s is already a binary log\n", in_path.c_str());
    return 2;
  }
  if (out_path.empty()) {
    out_path = in_path.empty() ? "log.logrl" : in_path + ".logrl";
  }

  LogLoader loader;
  if (int rc = ReadText(in_path, &loader)) return rc;
  std::string error;
  if (!loader.WriteBinary(out_path, name, &error)) return Fail(error);
  std::printf("wrote %s (%zu distinct templates, %zu features) — feed it "
              "back to `logr_cli compress` to skip the parse stage\n",
              out_path.c_str(), loader.log().NumDistinct(),
              loader.log().NumFeatures());
  return 0;
}

int RunMerge(const Command& self, int argc, char** argv) {
  std::size_t clusters = 0;  // 0 = keep every pooled component
  std::string out_path = "merged.logr";
  std::vector<std::string> inputs;
  if (!ParseArgs(self, argc, argv,
                 {{"--clusters", &clusters, 1}, {"--out", &out_path}},
                 {&inputs, 1, SIZE_MAX})) {
    return 2;
  }

  std::vector<PersistedSummary> parts(inputs.size());
  std::string error;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (!ReadSummaryFile(inputs[i], &parts[i], &error)) return Fail(error);
  }
  PersistedSummary merged;
  if (!MergeSummaries(parts, clusters, /*pool=*/nullptr, &merged, &error)) {
    return Fail(error);
  }
  const WorkloadModel& model = *merged.model;
  std::printf("merged %zu summaries: %zu clusters, %llu queries, error "
              "%.4f nats, verbosity %zu\n",
              parts.size(), model.NumComponents(),
              static_cast<unsigned long long>(model.LogSize()),
              model.Error(), model.TotalVerbosity());
  if (!WriteSummaryFile(out_path, merged.vocabulary, model, &error)) {
    return Fail(error);
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

int RunSplit(const Command& self, int argc, char** argv) {
  std::size_t shards = 4;
  std::string out_dir = "shards";
  std::string name = "cli";
  std::vector<std::string> paths;
  if (!ParseArgs(self, argc, argv,
                 {{"--shards", &shards, 1},
                  {"--out-dir", &out_dir},
                  {"--name", &name}},
                 {&paths, 0, 1})) {
    return 2;
  }

  QueryLog log;
  MmapQueryLog binary;
  LogView view;
  if (int rc = LoadAnyLog(OnlyPath(paths), /*announce_binary=*/false, &log,
                          &binary, &view)) {
    return rc;
  }
  if (view.NumDistinct() == 0) {
    std::fprintf(stderr, "no usable queries\n");
    return 1;
  }
  std::vector<ShardFile> files;
  std::string error;
  if (!WriteShardFiles(view, shards, out_dir, name, &files, &error)) {
    return Fail(error);
  }
  for (const ShardFile& f : files) {
    std::printf("wrote %s (%zu distinct, %llu queries)\n", f.path.c_str(),
                f.num_distinct,
                static_cast<unsigned long long>(f.num_queries));
  }
  std::printf("split %zu distinct templates into %zu shards under %s — "
              "compress them with `logr_cli distribute %s`\n",
              view.NumDistinct(), files.size(), out_dir.c_str(),
              out_dir.c_str());
  return 0;
}

int RunDistribute(const Command& self, int argc, char** argv) {
  DistributedOptions opts;
  opts.compression.num_clusters = 8;
  opts.spool_dir = "spool";
  std::string method = "kmeans";
  std::string out_path = "distributed.logr";
  std::uint64_t timeout_s = 0;
  bool no_resume = false;
  bool no_fallback = false;
  std::vector<std::string> inputs;
  if (!ParseArgs(self, argc, argv,
                 {{"--workers", &opts.num_workers, 1},
                  {"--clusters", &opts.compression.num_clusters, 1},
                  {"--method", &method},
                  {"--spool", &opts.spool_dir},
                  {"--retries", &opts.max_retries},
                  {"--timeout", &timeout_s, 1},
                  {"--no-resume", &no_resume},
                  {"--no-fallback", &no_fallback},
                  {"--out", &out_path}},
                 {&inputs, 1, SIZE_MAX})) {
    return 2;
  }
  opts.worker_timeout_seconds = static_cast<double>(timeout_s);
  opts.reuse_spool = !no_resume;
  opts.inprocess_fallback = !no_fallback;
  if (!ResolveMethodArg(method, /*list_adaptive=*/false, &opts.compression)) {
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

  DistributedResult result;
  std::string error;
  if (!CompressDistributed(shard_paths, opts, &result, &error)) {
    return Fail(error);
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
    return Fail(error);
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

/// Parses the one SUMMARY argument of info and visualize and reads it
/// into `s`. Returns 0 on success, the exit code otherwise.
int ReadSummaryArg(const Command& self, int argc, char** argv,
                   std::string* path, PersistedSummary* s) {
  std::vector<std::string> paths;
  if (!ParseArgs(self, argc, argv, {}, {&paths, 1, 1})) return 2;
  *path = paths[0];
  std::string error;
  if (!ReadSummaryFile(*path, s, &error)) return Fail(error);
  return 0;
}

int RunInfo(const Command& self, int argc, char** argv) {
  std::string path;
  PersistedSummary s;
  if (int rc = ReadSummaryArg(self, argc, argv, &path, &s)) return rc;
  const WorkloadModel& model = *s.model;
  std::printf("summary %s [%s]: %zu features, %zu clusters, %llu queries\n",
              path.c_str(), model.EncoderName(), s.vocabulary.size(),
              model.NumComponents(),
              static_cast<unsigned long long>(model.LogSize()));
  const SummarySize& size = s.size;
  std::printf("  bytes %zu (v4): codebook %zu, components %zu, patterns "
              "%zu, header %zu\n",
              size.total, size.codebook, size.components, size.patterns,
              size.total - size.codebook - size.components - size.patterns);
  for (std::size_t c = 0; c < model.NumComponents(); ++c) {
    std::printf("  cluster %zu: weight %.4f, |L| %llu, verbosity %zu\n", c,
                model.ComponentWeight(c),
                static_cast<unsigned long long>(model.ComponentLogSize(c)),
                model.ComponentVerbosity(c));
  }
  return 0;
}

int RunEstimate(const Command& self, int argc, char** argv) {
  std::vector<std::string> args;
  if (!ParseArgs(self, argc, argv, {}, {&args, 2, SIZE_MAX, true})) return 2;
  PersistedSummary s;
  std::string error;
  if (!ReadSummaryFile(args[0], &s, &error)) return Fail(error);
  // The canonical parser (shared with the serve protocol) accepts both
  // CLAUSE:TEXT terms and numeric feature ids, rejects malformed terms
  // loudly, and sorts + dedupes the result. Each argument may itself be
  // a comma-separated list, the same syntax the protocol accepts.
  std::vector<std::string> terms;
  for (std::size_t i = 1; i < args.size(); ++i) {
    for (std::string& t : SplitPredicateList(args[i])) {
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

int RunQuery(const Command& self, int argc, char** argv) {
  RetryOptions retry;
  int timeout_ms = 0;
  std::vector<std::string> args;
  if (!ParseArgs(self, argc, argv,
                 {{"--timeout", &timeout_ms},
                  {"--retries", &retry.max_retries}},
                 {&args, 2, SIZE_MAX, true})) {
    return 2;
  }
  // One deadline covers both phases: a hung connect and a hung response
  // are the same outage to the caller.
  retry.connect_timeout_ms = timeout_ms;
  retry.request_timeout_ms = timeout_ms;
  // The arguments after ENDPOINT are one request line; joining them back
  // lets the shell split "estimate prod WHERE:status = ?" naturally.
  std::string request;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (i > 1) request += " ";
    request += args[i];
  }
  const QueryOutcome outcome = QueryWithRetry(args[0], request, retry);
  if (!outcome.ok) {
    std::fprintf(stderr, "%s (after %d attempt%s)\n",
                 outcome.error.c_str(), outcome.attempts,
                 outcome.attempts == 1 ? "" : "s");
    return 1;
  }
  std::printf("%s\n", outcome.response.c_str());
  return outcome.response.rfind("ok", 0) == 0 ? 0 : 1;
}

int RunVisualize(const Command& self, int argc, char** argv) {
  std::string path;
  PersistedSummary s;
  if (int rc = ReadSummaryArg(self, argc, argv, &path, &s)) return rc;
  std::fputs(RenderMixture(s.vocabulary, *s.model).c_str(), stdout);
  return 0;
}

int RunDemo(const Command& self, int argc, char** argv) {
  if (!ParseArgs(self, argc, argv, {}, {})) return 2;
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
    return Fail(error);
  }
  std::printf("wrote demo_summary.logr — try:\n"
              "  logr_cli info demo_summary.logr\n"
              "  logr_cli estimate demo_summary.logr \"FROM:messages\"\n");
  return 0;
}

const Command kCommands[] = {
    {"compress",
     "compress [--clusters K] [--method NAME] [--encoder NAME] "
     "[--refine-patterns N] [--shards S] [--out FILE] [LOG|LOG.logrl]",
     RunCompress},
    {"convert", "convert [--name NAME] [--out FILE.logrl] [LOG]", RunConvert},
    {"split",
     "split [--shards N] [--out-dir DIR] [--name NAME] [LOG|LOG.logrl]",
     RunSplit},
    {"distribute",
     "distribute [--workers W] [--clusters K] [--method NAME] [--spool DIR] "
     "[--retries R] [--timeout SEC] [--no-resume] [--no-fallback] "
     "[--out FILE] SHARD.logrl...|SHARD_DIR",
     RunDistribute},
    {"merge", "merge [--clusters K] [--out FILE] SUMMARY...", RunMerge},
    {"info", "info SUMMARY", RunInfo},
    {"estimate", "estimate SUMMARY TERM...", RunEstimate},
    {"query", "query [--timeout MS] [--retries N] ENDPOINT REQUEST...",
     RunQuery},
    {"visualize", "visualize SUMMARY", RunVisualize},
    {"demo", "demo", RunDemo},
};

int Usage() {
  const char* lead = "usage:";
  for (const Command& command : kCommands) {
    std::fprintf(stderr, "%s logr_cli %s\n", lead, command.usage);
    lead = "      ";
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  for (const Command& command : kCommands) {
    if (std::strcmp(argv[1], command.name) == 0) {
      return command.run(command, argc, argv);
    }
  }
  return Usage();
}
