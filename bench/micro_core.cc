// Micro-benchmarks (google-benchmark) for the core operations the paper
// argues must be fast: SQL parse + featurize, naive encoding
// construction, marginal estimation from a compressed summary, k-means
// partitioning, and sampled-Deviation estimation.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "cluster/clusterer.h"
#include "cluster/distance.h"
#include "cluster/hierarchical.h"
#include "cluster/spectral.h"
#include "core/distributed.h"
#include "core/logr_compressor.h"
#include "core/mixture.h"
#include "core/serialization.h"
#include "core/sharded.h"
#include "core/naive_encoding.h"
#include "core/pattern_model.h"
#include "maxent/deviation.h"
#include "oracles/hierarchical_reference.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/summary_registry.h"
#include "sql/lexer.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "util/check.h"
#include "workload/binary_log.h"
#include "workload/extractor.h"
#include "workload/loader.h"
#include "workload/log_view.h"

namespace {

using namespace logr;
using namespace logr::bench;

const char* kSampleSql =
    "SELECT status, timestamp, expiration_timestamp, sms_raw_sender "
    "FROM conversations, message_notifications_view, messages_view "
    "WHERE expiration_timestamp > ? AND status != 5 AND "
    "conversation_id = ? AND timestamp > ? "
    "ORDER BY timestamp DESC LIMIT 500";

void BM_ParseSql(benchmark::State& state) {
  for (auto _ : state) {
    sql::ParseResult r = sql::Parse(kSampleSql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseSql);

void BM_ParseAndFeaturize(benchmark::State& state) {
  Vocabulary vocab;
  for (auto _ : state) {
    sql::ParseResult r = sql::Parse(kSampleSql);
    FeatureVec v = ExtractFeatures(*r.statement, {}, &vocab);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(BM_ParseAndFeaturize);

const QueryLog& PocketLogSingleton() {
  static const QueryLog* kLog = new QueryLog(LoadPocketLog());
  return *kLog;
}

void BM_NaiveEncodingBuild(benchmark::State& state) {
  const QueryLog& log = PocketLogSingleton();
  for (auto _ : state) {
    NaiveEncoding enc = NaiveEncoding::FromLog(log);
    benchmark::DoNotOptimize(enc);
  }
}
BENCHMARK(BM_NaiveEncodingBuild);

void BM_MarginalEstimate(benchmark::State& state) {
  const QueryLog& log = PocketLogSingleton();
  LogROptions opts;
  opts.num_clusters = 8;
  LogRSummary s = Compress(log, opts);
  FeatureVec pattern = log.Vector(0);
  for (auto _ : state) {
    double est = s.Model().EstimateCount(pattern);
    benchmark::DoNotOptimize(est);
  }
}
BENCHMARK(BM_MarginalEstimate);

void BM_TrueCountScan(benchmark::State& state) {
  // The uncompressed alternative the estimate replaces.
  const QueryLog& log = PocketLogSingleton();
  FeatureVec pattern = log.Vector(0);
  for (auto _ : state) {
    std::uint64_t count = log.CountContaining(pattern);
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_TrueCountScan);

const std::vector<LogEntry>& BankEntriesSingleton() {
  // Same options (including LOGR_BANK_SCALE) as every other bank bench.
  static const std::vector<LogEntry>* kEntries =
      new std::vector<LogEntry>(GenerateBankLog(BankOptions()));
  return *kEntries;
}

/// The bank log pre-serialized to the logr-log v1 columnar image.
const std::string& BankBinaryImageSingleton() {
  static const std::string* kImage = [] {
    LogLoader loader = LoadEntries(BankEntriesSingleton());
    std::ostringstream out;
    std::string error;
    LOGR_CHECK_MSG(BinaryLogWriter::Write(loader.log(),
                                          loader.Summary("bank"), &out,
                                          &error),
                   error.c_str());
    return new std::string(out.str());
  }();
  return *kImage;
}

/// The PocketData log's entries, generated with the bench options.
const std::vector<LogEntry>& PocketEntriesSingleton() {
  static const std::vector<LogEntry>* kEntries =
      new std::vector<LogEntry>(GeneratePocketDataLog(PocketOptions()));
  return *kEntries;
}

/// The full text funnel over `entries` (lex, key, and parse + regularize
/// + featurize each new template key), batched onto a pool of Args[0]
/// threads (1 is the serial path).
void LoadText(benchmark::State& state, const std::vector<LogEntry>& entries) {
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  LogLoader::Options opts;
  opts.pool = &pool;
  std::size_t distinct = 0;
  for (auto _ : state) {
    LogLoader loader(opts);
    for (const LogEntry& e : entries) loader.AddSql(e.sql, e.count);
    distinct = loader.log().NumDistinct();
    benchmark::DoNotOptimize(distinct);
  }
  state.counters["templates"] = static_cast<double>(distinct);
  state.counters["statements"] = static_cast<double>(entries.size());
  state.counters["threads"] = static_cast<double>(pool.NumThreads());
}

void BM_LoadTextBank(benchmark::State& state) {
  // Most bank lines repeat a template with other constants, so most hit
  // a key. This is the cost the binary format removes from every bench
  // and production run.
  LoadText(state, BankEntriesSingleton());
}
// Pool workers do most of the work, so only real time sees the scaling.
BENCHMARK(BM_LoadTextBank)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_LoadTextPocket(benchmark::State& state) {
  // Every PocketData line is its own template key (its JDBC `?`
  // parameters already strip the constants), so nothing hits: the key
  // and a second lex are pure overhead here.
  LoadText(state, PocketEntriesSingleton());
}
BENCHMARK(BM_LoadTextPocket)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Stages of the SQL front end BM_SqlFrontEnd times one at a time.
enum FrontEndStage {
  kLexStage,
  kParseStage,
  kRegularizeStage,
  kPrintStage,
  kKeyStage,
};

void BM_SqlFrontEnd(benchmark::State& state) {
  // One stage of the front end over every line of the bank log, on one
  // thread: lex; parse (lex included); constant-free regularization of
  // fresh parses (made with the timer paused, since it consumes them);
  // canonical print of the regularized SELECTs; the loader's template
  // key (lex included).
  const std::vector<LogEntry>& entries = BankEntriesSingleton();
  const auto stage = static_cast<FrontEndStage>(state.range(0));
  std::vector<sql::StatementPtr> parsed;
  auto parse_all = [&] {
    parsed.clear();
    for (const LogEntry& e : entries) {
      sql::ParseResult r = sql::Parse(e.sql);
      if (r.ok()) parsed.push_back(std::move(r.statement));
    }
  };
  std::vector<sql::StatementPtr> regular;
  if (stage == kPrintStage) {
    parse_all();
    for (sql::StatementPtr& s : parsed) {
      regular.push_back(sql::Regularize(std::move(s), {}, nullptr));
    }
  }
  std::size_t tokens = 0;
  for (auto _ : state) {
    switch (stage) {
      case kLexStage:
        tokens = 0;
        for (const LogEntry& e : entries) {
          tokens += sql::Lex(e.sql).tokens.size();
        }
        break;
      case kParseStage:
        parse_all();
        break;
      case kRegularizeStage: {
        state.PauseTiming();
        parse_all();
        state.ResumeTiming();
        for (sql::StatementPtr& s : parsed) {
          benchmark::DoNotOptimize(sql::Regularize(std::move(s), {}, nullptr));
        }
        break;
      }
      case kPrintStage:
        for (const sql::StatementPtr& s : regular) {
          benchmark::DoNotOptimize(sql::PrintStatement(*s));
        }
        break;
      case kKeyStage:
        for (const LogEntry& e : entries) {
          benchmark::DoNotOptimize(TemplateKey(e.sql));
        }
        break;
    }
    benchmark::ClobberMemory();
  }
  state.counters["statements"] = static_cast<double>(entries.size());
  if (stage == kLexStage) {
    state.counters["tokens"] = static_cast<double>(tokens);
  }
}
BENCHMARK(BM_SqlFrontEnd)
    ->ArgName("stage")
    ->Arg(kLexStage)
    ->Arg(kParseStage)
    ->Arg(kRegularizeStage)
    ->Arg(kPrintStage)
    ->Arg(kKeyStage)
    ->Unit(benchmark::kMillisecond);

void BM_LoadBinaryBank(benchmark::State& state) {
  // Eager binary load of the same log: copy + validate + checksum, then
  // materialize a full QueryLog. No SQL is touched.
  const std::string& image = BankBinaryImageSingleton();
  std::size_t distinct = 0;
  for (auto _ : state) {
    MmapQueryLog mapped;
    std::string error;
    LOGR_CHECK_MSG(
        MmapQueryLog::OpenBuffer(image.data(), image.size(), &mapped, &error),
        error.c_str());
    distinct = LogView(mapped).Materialize().NumDistinct();
    benchmark::DoNotOptimize(distinct);
  }
  state.counters["templates"] = static_cast<double>(distinct);
  state.counters["bytes"] = static_cast<double>(image.size());
}
BENCHMARK(BM_LoadBinaryBank)->Unit(benchmark::kMillisecond);

void BM_LoadBinaryBankMmap(benchmark::State& state) {
  // Mmap-backed load: open + validate, then one pass over the mapped
  // multiplicity column; no materialization at all.
  const std::string& image = BankBinaryImageSingleton();
  // Per-process name: a fixed path would collide with (and, if owned by
  // another user, fail against) earlier runs on a shared machine.
  const std::string path = "/tmp/logr_micro_bank." +
                           std::to_string(::getpid()) + ".logrl";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    LOGR_CHECK(static_cast<bool>(out));
  }
  std::uint64_t total = 0;
  for (auto _ : state) {
    MmapQueryLog log;
    std::string error;
    LOGR_CHECK_MSG(MmapQueryLog::Open(path, &log, &error), error.c_str());
    total = 0;
    for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
      total += log.Multiplicity(i);
    }
    benchmark::DoNotOptimize(total);
  }
  std::remove(path.c_str());
  state.counters["queries"] = static_cast<double>(total);
}
BENCHMARK(BM_LoadBinaryBankMmap)->Unit(benchmark::kMillisecond);

/// The bank image mmap'd back in: written to a temp file, mapped, then
/// unlinked — the mapping keeps the pages alive for the process.
const MmapQueryLog& BankMmapSingleton() {
  static const MmapQueryLog* kLog = [] {
    const std::string& image = BankBinaryImageSingleton();
    const std::string path = "/tmp/logr_micro_bank_compress." +
                             std::to_string(::getpid()) + ".logrl";
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(image.data(), static_cast<std::streamsize>(image.size()));
      LOGR_CHECK(static_cast<bool>(out));
    }
    auto* log = new MmapQueryLog();
    std::string error;
    LOGR_CHECK_MSG(MmapQueryLog::Open(path, log, &error), error.c_str());
    std::remove(path.c_str());
    return log;
  }();
  return *kLog;
}

void BM_CompressBinaryBank(benchmark::State& state, bool materialize_first) {
  // End-to-end compression straight off the mmap'd .logrl. The
  // materialize_first variant is what the CLI used to do (copy the
  // columns into a heap QueryLog, then compress); mmap_direct feeds the
  // view into the pipeline with no copy. Identical bits out either way.
  const MmapQueryLog& mapped = BankMmapSingleton();
  LogROptions opts;
  opts.num_clusters = 8;
  opts.n_init = 1;
  double pack_seconds = 0.0;
  double cluster_seconds = 0.0;
  for (auto _ : state) {
    LogRSummary s;
    if (materialize_first) {
      QueryLog log = LogView(mapped).Materialize();
      s = Compress(log, opts);
    } else {
      s = Compress(mapped, opts);
    }
    pack_seconds = s.pack_seconds;
    cluster_seconds = s.cluster_seconds;
    benchmark::DoNotOptimize(s.Model().Error());
  }
  state.counters["pack_ms"] = pack_seconds * 1e3;
  state.counters["cluster_ms"] = cluster_seconds * 1e3;
  state.counters["templates"] = static_cast<double>(mapped.NumDistinct());
}
BENCHMARK_CAPTURE(BM_CompressBinaryBank, mmap_direct, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_CompressBinaryBank, materialize_first, true)
    ->Unit(benchmark::kMillisecond);

struct DistanceInput {
  std::vector<FeatureVec> vecs;
  std::size_t num_features = 0;
};

const DistanceInput& BankVectorsSingleton() {
  // 1,712 distinct templates: big enough that the condensed pairwise
  // store (~1.5M entries) shows the thread-pool speedup.
  static const DistanceInput* kInput = [] {
    QueryLog log = LoadBankLog();
    auto* in = new DistanceInput();
    in->num_features = log.NumFeatures();
    in->vecs.reserve(log.NumDistinct());
    for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
      in->vecs.push_back(log.Vector(i));
    }
    return in;
  }();
  return *kInput;
}

void BM_DistanceMatrixSerial(benchmark::State& state) {
  // The merge-kernel reference: sorted-id-list walks into the condensed
  // store, serial. The packed kernel is measured against this baseline.
  const DistanceInput& in = BankVectorsSingleton();
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  for (auto _ : state) {
    CondensedDistances d = DistanceMatrixMerge(in.vecs, in.num_features,
                                               spec, /*pool=*/nullptr);
    benchmark::DoNotOptimize(d.at(0, 1));
  }
  state.counters["vectors"] = static_cast<double>(in.vecs.size());
}
BENCHMARK(BM_DistanceMatrixSerial)->Unit(benchmark::kMillisecond);

void BM_PackedDistanceMatrix(benchmark::State& state) {
  // XOR+popcount over the bit-packed pool into the condensed store,
  // single-core (packing cost included). Target: >= 5x over
  // BM_DistanceMatrixSerial on this log.
  const DistanceInput& in = BankVectorsSingleton();
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  for (auto _ : state) {
    CondensedDistances d = CondensedDistanceMatrix(in.vecs, in.num_features,
                                                   spec, /*pool=*/nullptr);
    benchmark::DoNotOptimize(d.at(0, 1));
  }
  state.counters["vectors"] = static_cast<double>(in.vecs.size());
  state.counters["words_per_vec"] =
      static_cast<double>((in.num_features + 63) / 64);
}
BENCHMARK(BM_PackedDistanceMatrix)->Unit(benchmark::kMillisecond);

void BM_DistanceMatrixParallel(benchmark::State& state) {
  // Packed kernel + balanced block-tiled scheduling over the shared
  // pool. Bit-identical to both serial paths; wall-clock scales with
  // LOGR_THREADS on multi-core hardware.
  const DistanceInput& in = BankVectorsSingleton();
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  ThreadPool* pool = ThreadPool::Shared();
  for (auto _ : state) {
    CondensedDistances d =
        CondensedDistanceMatrix(in.vecs, in.num_features, spec, pool);
    benchmark::DoNotOptimize(d.at(0, 1));
  }
  state.counters["vectors"] = static_cast<double>(in.vecs.size());
  state.counters["threads"] = static_cast<double>(pool->NumThreads());
}
BENCHMARK(BM_DistanceMatrixParallel)->Unit(benchmark::kMillisecond);

/// The bank's Hamming distances as a condensed store (a fresh one per
/// call; the fill is deterministic, so every call returns the same).
CondensedDistances BankDistances() {
  const DistanceInput& in = BankVectorsSingleton();
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  return CondensedDistanceMatrix(in.vecs, in.num_features, spec,
                                 ThreadPool::Shared());
}

const CondensedDistances& BankDistancesSingleton() {
  static const CondensedDistances* kDistances =
      new CondensedDistances(BankDistances());
  return *kDistances;
}

void BM_Agglomerate(benchmark::State& state) {
  // Cached-nearest NN-chain agglomeration over the bank distances (the
  // hierarchical method's fit stage minus the distance fill). Each
  // iteration consumes a fresh condensed store, built untimed.
  ThreadPool* pool = ThreadPool::Shared();
  std::size_t leaves = 0;
  for (auto _ : state) {
    state.PauseTiming();
    CondensedDistances d = BankDistances();
    leaves = d.size();
    state.ResumeTiming();
    Dendrogram dg = AgglomerativeAverageLinkage(std::move(d), {}, pool);
    benchmark::DoNotOptimize(dg.merge_a.data());
  }
  state.counters["leaves"] = static_cast<double>(leaves);
}
BENCHMARK(BM_Agglomerate)->Unit(benchmark::kMillisecond);

struct HierarchicalFitInput {
  std::vector<FeatureVec> vecs;
  PackedVecPool packed;
  std::vector<double> weights;
};

/// The bank log at `scale` times the templates, packed once as the
/// pipeline would.
HierarchicalFitInput* MakeHierarchicalFitInput(std::size_t scale) {
  BankLogOptions opts = BankOptions();
  opts.num_templates *= scale;
  const QueryLog log = LoadEntries(GenerateBankLog(opts)).TakeLog();
  auto* in = new HierarchicalFitInput();
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    in->vecs.push_back(log.Vector(i));
    in->weights.push_back(static_cast<double>(log.Multiplicity(i)));
  }
  in->packed = PackedVecPool(in->vecs, log.NumFeatures());
  return in;
}

const HierarchicalFitInput& BankHierarchicalFitSingleton() {
  // Twice the templates (3,424 by default): the recompress workload's
  // fit input.
  static const HierarchicalFitInput* kInput = MakeHierarchicalFitInput(2);
  return *kInput;
}

const HierarchicalFitInput& LargeHierarchicalFitSingleton() {
  // Four times the templates (6,848 leaves, a ~187 MB store): a store
  // far past the caches, so the scan team's chunks are memory-bound.
  static const HierarchicalFitInput* kInput = MakeHierarchicalFitInput(4);
  return *kInput;
}

/// The whole hierarchical fit over a pre-built pool: condensed distance
/// fill plus in-place agglomeration, as Cluster runs it for
/// ClusteringMethod::kHierarchicalAverage. `bytes` is the condensed
/// store, N(N−1)/2·8.
void RunHierarchicalFit(benchmark::State& state,
                        const HierarchicalFitInput& in) {
  DistanceSpec spec;
  spec.metric = Metric::kHamming;
  ThreadPool* pool = ThreadPool::Shared();
  std::size_t bytes = 0;
  for (auto _ : state) {
    CondensedDistances d = CondensedDistanceMatrix(in.packed, spec, pool);
    bytes = d.bytes();
    Dendrogram dg = AgglomerativeAverageLinkage(std::move(d), in.weights,
                                                pool);
    benchmark::DoNotOptimize(dg.merge_a.data());
  }
  state.counters["leaves"] = static_cast<double>(in.packed.size());
  state.counters["bytes"] = static_cast<double>(bytes);
  state.counters["threads"] = static_cast<double>(pool->NumThreads());
}

void BM_HierarchicalFit(benchmark::State& state) {
  RunHierarchicalFit(state, BankHierarchicalFitSingleton());
}
BENCHMARK(BM_HierarchicalFit)->Unit(benchmark::kMillisecond);

void BM_HierarchicalFitLarge(benchmark::State& state) {
  RunHierarchicalFit(state, LargeHierarchicalFitSingleton());
}
BENCHMARK(BM_HierarchicalFitLarge)->Unit(benchmark::kMillisecond);

void BM_AgglomerateReference(benchmark::State& state) {
  // The pre-change serial NN-chain (full nearest scans) — the
  // bit-identity reference BM_Agglomerate is measured against.
  const CondensedDistances& d = BankDistancesSingleton();
  for (auto _ : state) {
    Dendrogram dg = AgglomerativeAverageLinkageReference(d, {});
    benchmark::DoNotOptimize(dg.merge_a.data());
  }
  state.counters["leaves"] = static_cast<double>(d.size());
}
BENCHMARK(BM_AgglomerateReference)->Unit(benchmark::kMillisecond);

void BM_SpectralAffinity(benchmark::State& state) {
  // The spectral stages between the distance fill and the eigensolver:
  // the median-bandwidth gather, the Gaussian affinity written over the
  // condensed store, and the degree mat-vec. The affinity consumes its
  // store, so each iteration re-fills a copy of the bank distances
  // untimed.
  const CondensedDistances& d = BankDistancesSingleton();
  ThreadPool* pool = ThreadPool::Shared();
  for (auto _ : state) {
    state.PauseTiming();
    CondensedDistances w(d.size());
    std::copy(d.Row(0), d.Row(0) + d.bytes() / sizeof(double), w.Row(0));
    state.ResumeTiming();
    GaussianKernelInPlace(&w, MedianNonzeroDistance(w, pool), pool);
    Vector degree;
    UnitDiagonalMatVec(w, Vector(w.size(), 1.0), &degree, pool);
    benchmark::DoNotOptimize(degree.data());
  }
  state.counters["vectors"] = static_cast<double>(d.size());
  state.counters["bytes"] = static_cast<double>(d.bytes());
}
BENCHMARK(BM_SpectralAffinity)->Unit(benchmark::kMillisecond);

void BM_SpectralFit(benchmark::State& state) {
  // The whole hamming spectral fit at K=8 on the 3,424-template bank
  // log, as Cluster runs it on a pool of Args[0] threads: condensed
  // distance fill, median, in-place affinity, Lanczos over the condensed
  // mat-vec, embedding k-means.
  const HierarchicalFitInput& in = BankHierarchicalFitSingleton();
  ThreadPool pool(static_cast<std::size_t>(state.range(0)));
  ClusterRequest req;
  req.k = 8;
  req.num_features = in.packed.num_features();
  req.pool = &pool;
  req.packed = &in.packed;
  for (auto _ : state) {
    std::vector<int> assignment = Cluster(ClusteringMethod::kSpectralHamming,
                                          in.vecs, in.weights, req);
    benchmark::DoNotOptimize(assignment.data());
  }
  state.counters["vectors"] = static_cast<double>(in.vecs.size());
  state.counters["threads"] = static_cast<double>(pool.NumThreads());
}
// Pool workers do most of the work, so only real time sees the scaling.
BENCHMARK(BM_SpectralFit)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

const NaiveMixtureEncoding& PooledComponentsSingleton() {
  // A thousand-shard-scale pool: 4096 synthetic components over a few
  // hundred features, the regime the former 1024-bounded greedy polish
  // could not reach.
  static const NaiveMixtureEncoding* kPool = [] {
    constexpr std::size_t kComponents = 4096;
    constexpr std::size_t kFeatures = 256;
    std::vector<MixtureComponent> comps;
    comps.reserve(kComponents);
    std::uint64_t grand_total = 0;
    for (std::size_t c = 0; c < kComponents; ++c) {
      QueryLog part;
      // Three templates around a per-component anchor feature; counts
      // and offsets vary with c so components are (mostly) distinct and
      // fused groups keep a nonzero error. When c % 5 == 1 the first two
      // templates coincide and the log merges them.
      const FeatureId base = static_cast<FeatureId>((c * 37) % kFeatures);
      part.Add(FeatureVec({base, static_cast<FeatureId>(
                                     (base + 1 + c % 5) % kFeatures)}),
               1 + (c % 7));
      part.Add(
          FeatureVec({base, static_cast<FeatureId>((base + 2) % kFeatures)}),
          2);
      part.Add(FeatureVec({static_cast<FeatureId>((base + 3) % kFeatures)}),
               1);
      grand_total += part.TotalQueries();
      MixtureComponent comp;  // weight fixed below
      comp.encoding = NaiveEncoding::FromLog(part);
      comps.push_back(std::move(comp));
    }
    for (MixtureComponent& comp : comps) {
      comp.weight = static_cast<double>(comp.encoding.LogSize()) /
                    static_cast<double>(grand_total);
    }
    return new NaiveMixtureEncoding(
        NaiveMixtureEncoding::FromComponents(std::move(comps)));
  }();
  return *kPool;
}

void BM_Reconcile(benchmark::State& state) {
  // Nearest-component-chain reconcile of Arg pooled components down to
  // 64 — the sharded/offline-merge consolidation stage.
  const NaiveMixtureEncoding& pool_enc = PooledComponentsSingleton();
  const std::size_t take = static_cast<std::size_t>(state.range(0));
  std::vector<MixtureComponent> subset;
  subset.reserve(take);
  for (std::size_t c = 0; c < take; ++c) {
    subset.push_back(pool_enc.Component(c));
  }
  NaiveMixtureEncoding merged =
      NaiveMixtureEncoding::FromComponents(std::move(subset));
  ThreadPool* pool = ThreadPool::Shared();
  double error = 0.0;
  for (auto _ : state) {
    NaiveMixtureEncoding reconciled = merged.Reconcile(64, pool);
    error = reconciled.Error();
    benchmark::DoNotOptimize(error);
  }
  state.counters["components"] = static_cast<double>(take);
  state.counters["error_nats"] = error;
}
BENCHMARK(BM_Reconcile)->Arg(512)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_KMeansCompress(benchmark::State& state) {
  const QueryLog& log = PocketLogSingleton();
  LogROptions opts;
  opts.num_clusters = static_cast<std::size_t>(state.range(0));
  opts.n_init = 1;
  for (auto _ : state) {
    LogRSummary s = Compress(log, opts);
    benchmark::DoNotOptimize(s.Model().Error());
  }
}
BENCHMARK(BM_KMeansCompress)->Arg(4)->Arg(16);

const QueryLog& Synthetic50kLogSingleton() {
  // ~50k queries over 1,000 distinct templates: big enough that the
  // per-shard pipelines dominate the merge/reconcile overhead.
  static const QueryLog* kLog = [] {
    PocketDataOptions gen;
    gen.num_distinct = 1000;
    gen.total_queries = 50000;
    return new QueryLog(LoadEntries(GeneratePocketDataLog(gen)).TakeLog());
  }();
  return *kLog;
}

void BM_ShardedCompress(benchmark::State& state) {
  // Sharded vs monolithic compression (Arg = shard count; 1 is the
  // monolithic baseline). Results are bit-deterministic for any thread
  // count; wall-clock scales with LOGR_THREADS on multi-core hardware.
  const QueryLog& log = Synthetic50kLogSingleton();
  LogROptions opts;
  opts.num_clusters = 16;
  opts.n_init = 1;
  opts.num_shards = static_cast<std::size_t>(state.range(0));
  double error = 0.0;
  for (auto _ : state) {
    LogRSummary s = Compress(log, opts);
    error = s.Model().Error();
    benchmark::DoNotOptimize(error);
  }
  state.counters["shards"] = static_cast<double>(opts.num_shards);
  state.counters["error_nats"] = error;
  state.counters["threads"] =
      static_cast<double>(ThreadPool::Shared()->NumThreads());
}
BENCHMARK(BM_ShardedCompress)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

/// The synthetic 50k log split into 8 shard .logrl files under a
/// per-pid /tmp directory (same split the in-process sharded path
/// computes), written once per process.
const std::vector<std::string>& DistributedShardsSingleton() {
  static const std::vector<std::string>* kPaths = [] {
    const QueryLog& log = Synthetic50kLogSingleton();
    const std::string dir =
        "/tmp/logr_micro_dist." + std::to_string(::getpid());
    std::vector<ShardFile> files;
    std::string error;
    LOGR_CHECK_MSG(
        WriteShardFiles(LogView(log), 8, dir, "dist", &files, &error),
        error.c_str());
    auto* paths = new std::vector<std::string>();
    for (const ShardFile& f : files) paths->push_back(f.path);
    return paths;
  }();
  return *kPaths;
}

void BM_DistributedCompress(benchmark::State& state) {
  // Scatter/gather over forked worker processes (Arg = concurrent
  // workers) on the same 8-shard split as BM_ShardedCompress. The spool
  // is cold every iteration (reuse_spool off), so each iteration pays
  // the full per-shard compression; on multi-core hardware wall-clock
  // scales near-linearly with the worker count while the gathered
  // summary stays bit-identical to the in-process sharded merge.
  const std::vector<std::string>& shards = DistributedShardsSingleton();
  double error = 0.0;
  std::size_t launched = 0;
  for (auto _ : state) {
    DistributedOptions opts;
    opts.num_workers = static_cast<std::size_t>(state.range(0));
    opts.compression.num_clusters = 16;
    opts.compression.n_init = 1;
    opts.spool_dir =
        "/tmp/logr_micro_dist." + std::to_string(::getpid()) + "/spool";
    opts.reuse_spool = false;
    DistributedResult result;
    std::string derror;
    LOGR_CHECK_MSG(CompressDistributed(shards, opts, &result, &derror),
                   derror.c_str());
    error = result.summary.model->Error();
    launched = result.workers_launched;
    benchmark::DoNotOptimize(error);
  }
  state.counters["workers"] = static_cast<double>(state.range(0));
  state.counters["shards"] = static_cast<double>(shards.size());
  state.counters["spawns"] = static_cast<double>(launched);
  state.counters["error_nats"] = error;
}
// Workers run in child processes, so only real time sees the scaling.
BENCHMARK(BM_DistributedCompress)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

const QueryLog& EncoderBenchLogSingleton() {
  // Small enough that the pattern encoder's per-component iterative
  // scaling stays in the milliseconds; big enough to be representative.
  static const QueryLog* kLog = [] {
    PocketDataOptions gen;
    gen.num_distinct = 200;
    gen.total_queries = 30000;
    return new QueryLog(LoadEntries(GeneratePocketDataLog(gen)).TakeLog());
  }();
  return *kLog;
}

LogROptions EncoderBenchOptions(const char* encoder) {
  LogROptions opts;
  opts.num_clusters = 4;
  opts.n_init = 1;
  opts.encoder = encoder;
  opts.refine_patterns = 4;
  opts.pattern_budget = 6;
  return opts;
}

void BM_EncoderCompress(benchmark::State& state, const char* encoder) {
  // Full compression cost per encoder at equal K: the price of
  // trading naive marginals for refined / fitted pattern encodings.
  const QueryLog& log = EncoderBenchLogSingleton();
  const LogROptions opts = EncoderBenchOptions(encoder);
  double error = 0.0;
  for (auto _ : state) {
    LogRSummary s = Compress(log, opts);
    error = s.Model().Error();
    benchmark::DoNotOptimize(error);
  }
  state.counters["error_nats"] = error;
}
BENCHMARK_CAPTURE(BM_EncoderCompress, naive, "naive")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EncoderCompress, refined, "refined")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EncoderCompress, pattern, "pattern")
    ->Unit(benchmark::kMillisecond);

void BM_EncoderEstimateCount(benchmark::State& state, const char* encoder) {
  // The analytics hot path: EstimateCount through the WorkloadModel
  // facade. Naive/refined answer from marginal products; pattern models
  // walk the signature lattice.
  const QueryLog& log = EncoderBenchLogSingleton();
  LogRSummary s = Compress(log, EncoderBenchOptions(encoder));
  FeatureVec pattern = log.Vector(0);
  for (auto _ : state) {
    double est = s.Model().EstimateCount(pattern);
    benchmark::DoNotOptimize(est);
  }
  state.counters["verbosity"] =
      static_cast<double>(s.Model().TotalVerbosity());
}
BENCHMARK_CAPTURE(BM_EncoderEstimateCount, naive, "naive");
BENCHMARK_CAPTURE(BM_EncoderEstimateCount, refined, "refined");
BENCHMARK_CAPTURE(BM_EncoderEstimateCount, pattern, "pattern");

void BM_PatternEstimate(benchmark::State& state) {
  // The served pattern estimate: PocketData at K = 8 with an Arg
  // per-component pattern budget, answering a fixed battery of
  // template-derived predicates (1-3 features of a template picked at a
  // fixed stride). One iteration is one EstimateCount, cycling through
  // the battery; each walks every component's 2^m signature lattice.
  const QueryLog& log = PocketLogSingleton();
  LogROptions opts;
  opts.num_clusters = 8;
  opts.n_init = 1;
  opts.encoder = "pattern";
  opts.pattern_budget = static_cast<std::size_t>(state.range(0));
  LogRSummary s = Compress(log, opts);
  std::vector<FeatureVec> battery;
  for (std::size_t k = 0; k < 64; ++k) {
    const FeatureVec& v = log.Vector((k * 7919) % log.NumDistinct());
    if (v.empty()) continue;
    std::vector<FeatureId> ids;
    for (std::size_t j = 0; j < std::min<std::size_t>(1 + k % 3, v.size());
         ++j) {
      ids.push_back(v.ids[(k + j) % v.size()]);
    }
    battery.push_back(FeatureVec(std::move(ids)));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    double est = s.Model().EstimateCount(battery[next]);
    benchmark::DoNotOptimize(est);
    if (++next == battery.size()) next = 0;
  }
  state.counters["verbosity"] =
      static_cast<double>(s.Model().TotalVerbosity());
}
BENCHMARK(BM_PatternEstimate)->Arg(8)->Arg(12)->Unit(benchmark::kMicrosecond);

void BM_PatternRefit(benchmark::State& state) {
  // The refit a reload pays: every component of a PocketData K = 8
  // pattern summary rebuilt through the reload constructor from its
  // stored (patterns, marginals), as ReadSummaryFile does. One
  // iteration refits all components.
  const QueryLog& log = PocketLogSingleton();
  LogROptions opts;
  opts.num_clusters = 8;
  opts.n_init = 1;
  opts.encoder = "pattern";
  LogRSummary s = Compress(log, opts);
  const PatternMixtureModel* model = s.Model().AsPatternMixture();
  LOGR_CHECK(model != nullptr);
  double sweeps = 0.0;
  for (auto _ : state) {
    sweeps = 0.0;
    for (std::size_t i = 0; i < model->NumComponents(); ++i) {
      const PatternEncoding& enc = model->ComponentEncoding(i);
      PatternEncoding refit(enc.patterns(), enc.marginals(), enc.NumFeatures(),
                            enc.EmpiricalEntropy(), enc.LogSize());
      benchmark::DoNotOptimize(refit.MaxEntEntropy());
      sweeps += refit.model().iterations();
    }
  }
  state.counters["components"] =
      static_cast<double>(model->NumComponents());
  state.counters["sweeps"] = sweeps;
}
BENCHMARK(BM_PatternRefit)->Unit(benchmark::kMillisecond);

/// A live serve daemon over a one-summary directory, bound to a Unix
/// socket, started once per process. The watch thread is disabled so
/// the benchmark isolates the protocol round-trip cost.
struct ServeBench {
  SummaryRegistry* registry = nullptr;
  ServeDaemon* daemon = nullptr;
  std::string endpoint;
  std::string request;  ///< the estimate line every client issues
};

const ServeBench& ServeBenchSingleton() {
  static const ServeBench* kServe = [] {
    const QueryLog& log = PocketLogSingleton();
    const std::string dir =
        "/tmp/logr_micro_serve." + std::to_string(::getpid());
    std::string error;
    LOGR_CHECK_MSG(EnsureDirectory(dir, &error), error.c_str());
    LogROptions opts;
    opts.num_clusters = 8;
    opts.n_init = 1;
    LogRSummary s = Compress(log, opts);
    LOGR_CHECK_MSG(WriteSummaryFile(dir + "/pocket.logr", log.vocabulary(),
                                    s.Model(), &error),
                   error.c_str());
    auto* bench = new ServeBench();
    bench->registry = new SummaryRegistry(dir);
    bench->daemon = new ServeDaemon(bench->registry);
    ServeOptions sopts;
    sopts.listen = "unix:" + dir + "/serve.sock";
    sopts.rescan_interval_ms = 0;
    LOGR_CHECK_MSG(bench->daemon->Start(sopts, &error), error.c_str());
    bench->endpoint = bench->daemon->endpoint();
    // A two-feature conjunctive predicate from a real template, by id —
    // the shape `logr_cli query ... estimate` sends.
    const FeatureVec& vec = log.Vector(0);
    bench->request = "estimate pocket " + std::to_string(vec.ids[0]) + "," +
                     std::to_string(vec.ids[1]);
    return bench;
  }();
  return *kServe;
}

void BM_ServeEstimate(benchmark::State& state) {
  // End-to-end served-estimate latency: a fixed batch of requests per
  // iteration, spread across Arg persistent client connections, each
  // request a full write/parse/estimate/format/read round-trip over the
  // Unix socket. p50/p99 are per-request microseconds from the last
  // iteration; qps is aggregate over real time.
  const ServeBench& serve = ServeBenchSingleton();
  const std::size_t num_clients = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRequestsPerIter = 2048;
  const std::size_t per_client = kRequestsPerIter / num_clients;
  std::int64_t total_requests = 0;
  std::vector<double> latencies_us;
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<ServeClient> clients(num_clients);
    for (ServeClient& client : clients) {
      std::string error;
      LOGR_CHECK_MSG(client.Connect(serve.endpoint, &error), error.c_str());
    }
    std::vector<std::vector<double>> per_thread(num_clients);
    state.ResumeTiming();
    std::vector<std::thread> threads;
    threads.reserve(num_clients);
    for (std::size_t c = 0; c < num_clients; ++c) {
      threads.emplace_back([&, c] {
        per_thread[c].reserve(per_client);
        for (std::size_t r = 0; r < per_client; ++r) {
          const auto start = std::chrono::steady_clock::now();
          std::string response, error;
          LOGR_CHECK_MSG(
              clients[c].Request(serve.request, &response, &error),
              error.c_str());
          const auto stop = std::chrono::steady_clock::now();
          LOGR_CHECK_MSG(response.compare(0, 3, "ok ") == 0,
                         response.c_str());
          per_thread[c].push_back(
              std::chrono::duration<double, std::micro>(stop - start)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    latencies_us.clear();
    for (const std::vector<double>& lat : per_thread) {
      latencies_us.insert(latencies_us.end(), lat.begin(), lat.end());
    }
    total_requests += static_cast<std::int64_t>(latencies_us.size());
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    state.counters["p50_us"] = latencies_us[latencies_us.size() / 2];
    state.counters["p99_us"] =
        latencies_us[latencies_us.size() * 99 / 100];
  }
  state.counters["clients"] = static_cast<double>(num_clients);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_requests), benchmark::Counter::kIsRate);
}
// Connections are answered by daemon-side threads, so only real time
// sees the concurrency.
BENCHMARK(BM_ServeEstimate)
    ->Arg(1)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// Overload twin of ServeBenchSingleton: the same summary behind a
/// daemon capped at 2 concurrent connections, so a connect-per-request
/// herd is mostly shed. Started once per process, like its twin.
const ServeBench& OverloadServeBenchSingleton() {
  static const ServeBench* kServe = [] {
    const QueryLog& log = PocketLogSingleton();
    const std::string dir =
        "/tmp/logr_micro_serve_overload." + std::to_string(::getpid());
    std::string error;
    LOGR_CHECK_MSG(EnsureDirectory(dir, &error), error.c_str());
    LogROptions opts;
    opts.num_clusters = 8;
    opts.n_init = 1;
    LogRSummary s = Compress(log, opts);
    LOGR_CHECK_MSG(WriteSummaryFile(dir + "/pocket.logr", log.vocabulary(),
                                    s.Model(), &error),
                   error.c_str());
    auto* bench = new ServeBench();
    bench->registry = new SummaryRegistry(dir);
    bench->daemon = new ServeDaemon(bench->registry);
    ServeOptions sopts;
    sopts.listen = "unix:" + dir + "/serve.sock";
    sopts.rescan_interval_ms = 0;
    sopts.max_connections = 2;
    LOGR_CHECK_MSG(bench->daemon->Start(sopts, &error), error.c_str());
    bench->endpoint = bench->daemon->endpoint();
    const FeatureVec& vec = log.Vector(0);
    bench->request = "estimate pocket " + std::to_string(vec.ids[0]) + "," +
                     std::to_string(vec.ids[1]);
    return bench;
  }();
  return *kServe;
}

void BM_ServeEstimateOverload(benchmark::State& state) {
  // Sustained overload: 8 clients, each connecting per request against
  // the cap-2 daemon. A request either lands (its latency feeds
  // p50/p99) or is refused — an explicit "err busy", or the cut that
  // follows one — and feeds shed_rate. The bench certifies that
  // shedding stays cheap (served p99 does not collapse under the herd)
  // and loud (shed_rate accounts for every refused request).
  const ServeBench& serve = OverloadServeBenchSingleton();
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kPerClient = 32;
  std::int64_t total_served = 0;
  std::int64_t total_shed = 0;
  std::vector<double> latencies_us;
  for (auto _ : state) {
    std::vector<std::vector<double>> per_thread(kClients);
    std::atomic<std::int64_t> iter_shed{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (std::size_t r = 0; r < kPerClient; ++r) {
          const auto start = std::chrono::steady_clock::now();
          ServeClient client;
          std::string response, error;
          if (!client.Connect(serve.endpoint, 5000, &error) ||
              !client.Request(serve.request, 5000, &response, &error) ||
              response.compare(0, 3, "ok ") != 0) {
            iter_shed.fetch_add(1);
            continue;
          }
          const auto stop = std::chrono::steady_clock::now();
          per_thread[c].push_back(
              std::chrono::duration<double, std::micro>(stop - start)
                  .count());
        }
      });
    }
    for (std::thread& t : threads) t.join();
    latencies_us.clear();
    for (const std::vector<double>& lat : per_thread) {
      latencies_us.insert(latencies_us.end(), lat.begin(), lat.end());
    }
    total_served += static_cast<std::int64_t>(latencies_us.size());
    total_shed += iter_shed.load();
  }
  std::sort(latencies_us.begin(), latencies_us.end());
  if (!latencies_us.empty()) {
    state.counters["p50_us"] = latencies_us[latencies_us.size() / 2];
    state.counters["p99_us"] =
        latencies_us[latencies_us.size() * 99 / 100];
  }
  const double refused = static_cast<double>(total_shed);
  const double total = static_cast<double>(total_served) + refused;
  state.counters["shed_rate"] = total > 0 ? refused / total : 0.0;
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_served), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServeEstimateOverload)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_DeviationSample(benchmark::State& state) {
  const QueryLog& log = PocketLogSingleton();
  std::vector<FeatureId> band =
      ProjectedLog::SelectFeaturesInBand(log, 0.01, 0.99);
  if (band.size() > 8) band.resize(8);
  ProjectedLog proj(log, band);
  ProjectedEncoding enc = ProjectedEncoding::Measure(
      proj, {FeatureVec({0, 1}), FeatureVec({2})});
  for (auto _ : state) {
    DeviationResult d = EstimateDeviation(proj, enc, 20, 3);
    benchmark::DoNotOptimize(d.mean);
  }
}
BENCHMARK(BM_DeviationSample);

}  // namespace

BENCHMARK_MAIN();
