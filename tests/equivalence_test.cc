// Path-equivalence oracle: every route from a log to an estimate gives
// the same encoding and the same numbers. Each case is one dataset
// (bank, PocketData, a seeded grouped random log) under one encoder
// (naive, refined, pattern) and one clustering method (k-means; on bank
// naive also hierarchical and spectral hamming), and runs the log
// through every path: SQL text and the mmap'd .logrl, explicit pools of
// 1, 3 and 4 threads, adaptive bisection, monolithic vs S=1 and S=4
// sharded, the offline summary merge, fork-mode distributed workers and
// the merge of their spooled summaries, a write/read reload and a
// unix-socket ServeDaemon. Summaries are held to byte equality, models
// to bit equality component by component, and a 64-query estimate
// battery to bit equality.
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/clusterer.h"
#include "core/distributed.h"
#include "core/encoder.h"
#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "core/sharded.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "oracles/same_log.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/summary_registry.h"
#include "util/prng.h"
#include "util/thread_pool.h"
#include "workload/binary_log.h"
#include "workload/log_view.h"

namespace logr {
namespace {

constexpr std::size_t kShards = 4;

struct Dataset {
  QueryLog log;
  /// The Table-1 block the .logrl carries.
  DatasetSummary stats;
  /// K and restarts; each case sets the encoder and method.
  LogROptions opts;
};

Dataset FromLoader(LogLoader loader, const std::string& name) {
  Dataset d;
  d.stats = loader.Summary(name);
  d.log = loader.TakeLog();
  d.opts.num_clusters = 6;
  d.opts.n_init = 1;
  return d;
}

Dataset Bank() {
  BankLogOptions gen;
  gen.num_templates = 250;
  gen.total_queries = 120000;
  gen.noise_entries = 20;
  return FromLoader(LoadEntries(GenerateBankLog(gen)), "bank");
}

Dataset Pocket() {
  PocketDataOptions gen;
  gen.num_distinct = 200;
  gen.total_queries = 60000;
  return FromLoader(LoadEntries(GeneratePocketDataLog(gen)), "pocket");
}

/// Three groups of 8 features over 10 random queries each (seed 41):
/// every query holds its group's first feature plus a coin flip of the
/// other seven. Compressed at K=3 with default restarts.
Dataset Grouped() {
  Pcg32 rng(41);
  Dataset d;
  for (std::size_t f = 0; f < 24; ++f) {
    d.log.mutable_vocabulary()->Intern(
        {FeatureClause::kSelect, "col" + std::to_string(f)});
  }
  for (std::size_t g = 0; g < 3; ++g) {
    for (std::size_t i = 0; i < 10; ++i) {
      std::vector<FeatureId> ids = {static_cast<FeatureId>(g * 8)};
      for (std::size_t f = 1; f < 8; ++f) {
        if (rng.NextBernoulli(0.5)) {
          ids.push_back(static_cast<FeatureId>(g * 8 + f));
        }
      }
      d.log.Add(FeatureVec(std::move(ids)), 1 + rng.NextBounded(30));
    }
  }
  d.stats = LogStatistics(d.log, "grouped");
  d.opts.num_clusters = 3;
  return d;
}

/// Each log is built once and shared by its cases.
const Dataset& DatasetNamed(const std::string& name) {
  static auto* cache = new std::map<std::string, Dataset>();
  auto it = cache->find(name);
  if (it != cache->end()) return it->second;
  Dataset d;
  if (name == "bank") {
    d = Bank();
  } else if (name == "pocket") {
    d = Pocket();
  } else {
    d = Grouped();
  }
  return cache->emplace(name, std::move(d)).first->second;
}

std::string Bytes(const Vocabulary& vocab, const WorkloadModel& model) {
  std::ostringstream out;
  std::string error;
  EXPECT_TRUE(WriteSummary(vocab, model, &out, &error)) << error;
  return out.str();
}

std::uint64_t Bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// 64 conjunctions: 32 pairs {a, a+8} (on the grouped log the first 8
/// pair each group-0 feature with its group-1 twin), then prefixes of
/// 1-4 features of 32 distinct queries spread over the log.
std::vector<FeatureVec> Battery(const QueryLog& log) {
  const std::size_t n = log.NumFeatures();
  std::vector<FeatureVec> battery;
  for (std::size_t a = 0; a < 32; ++a) {
    battery.push_back(FeatureVec({static_cast<FeatureId>(a % n),
                                  static_cast<FeatureId>((a + 8) % n)}));
  }
  for (std::size_t q = 0; q < 32; ++q) {
    const FeatureVec& v = log.Vector(q * log.NumDistinct() / 32);
    const std::size_t len = std::min(v.size(), 1 + q % 4);
    battery.push_back(FeatureVec(
        std::vector<FeatureId>(v.ids.begin(), v.ids.begin() + len)));
  }
  return battery;
}

std::string IdList(const std::vector<FeatureId>& ids) {
  std::string out;
  for (FeatureId f : ids) {
    if (!out.empty()) out += ",";
    out += std::to_string(f);
  }
  return out;
}

/// Component `c` as one comparable string: its log size and verbosity,
/// the bits of its weight and error, its patterns, and its features,
/// each with the bits of its marginal.
std::string ComponentKey(const WorkloadModel& model, std::size_t c) {
  std::ostringstream key;
  key << model.ComponentLogSize(c) << " v" << model.ComponentVerbosity(c)
      << " w" << Bits(model.ComponentWeight(c)) << " e"
      << Bits(model.ComponentError(c));
  for (const FeatureVec& p : model.ComponentPatterns(c)) {
    key << " p" << IdList(p.ids);
  }
  for (FeatureId f : model.ComponentFeatures(c)) {
    key << ' ' << f << ':' << Bits(model.ComponentMarginal(c, f));
  }
  return key.str();
}

/// The value of `key=` in a protocol response line.
double Field(const std::string& response, const std::string& key) {
  const std::size_t at = response.find(" " + key + "=");
  EXPECT_NE(at, std::string::npos) << response;
  if (at == std::string::npos) return -1.0;
  return std::strtod(response.c_str() + at + key.size() + 2, nullptr);
}

struct Case {
  const char* dataset;
  const char* encoder;
  /// A ParseClusteringMethod spelling.
  const char* method = "kmeans";
};

std::string Label(const Case& c) {
  std::string label = std::string(c.dataset) + "_" + c.encoder;
  if (std::string(c.method) != "kmeans") label += std::string("_") + c.method;
  return label;
}

void PrintTo(const Case& c, std::ostream* os) { *os << Label(c); }

std::string CaseName(const ::testing::TestParamInfo<Case>& info) {
  return Label(info.param);
}

class EquivalenceTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    data_ = &DatasetNamed(GetParam().dataset);
    opts_ = data_->opts;
    opts_.encoder = GetParam().encoder;
    ASSERT_TRUE(ParseClusteringMethod(GetParam().method, &opts_.method))
        << GetParam().method;
    battery_ = Battery(log());
    // A fresh directory per run, so a repeat in the same process reads
    // back no spooled summary as reused.
    dir_ = ::testing::TempDir() + "logr_equiv_" + Label(GetParam()) + "_" +
           std::to_string(::getpid());
    std::filesystem::remove_all(dir_);
    std::string error;
    ASSERT_TRUE(EnsureDirectory(dir_ + "/serve", &error)) << error;
    ASSERT_TRUE(EnsureDirectory(dir_ + "/shards", &error)) << error;
  }

  void TearDown() override { JoinStopper(); }

  /// Waits until the served leg's daemon has stopped.
  void JoinStopper() {
    if (stopper_.joinable()) stopper_.join();
  }

  const QueryLog& log() const { return data_->log; }

  LogROptions Sharded(const std::string& encoder) const {
    LogROptions opts = opts_;
    opts.encoder = encoder;
    opts.num_shards = kShards;
    return opts;
  }

  /// The S=4 split `logr_cli split` writes and the in-process sharded
  /// path compresses.
  std::vector<QueryLog> ShardLogs() const {
    const LogView view(log());
    std::vector<QueryLog> shards;
    for (const std::vector<std::size_t>& part :
         PartitionIndices(view, kShards)) {
      shards.push_back(view.MaterializeSubset(part));
    }
    return shards;
  }

  /// The .logrl image, written to disk and mmap-opened, reads back as
  /// the text load: the same log and Table-1 block, the same columns
  /// through the mapped accessors, and the same containment counts.
  void ExpectBinaryLogMatchesText(const MmapQueryLog& mapped) const {
    EXPECT_TRUE(mapped.mapped());
    std::string why;
    EXPECT_TRUE(SameQueryLog(LogView(mapped).Materialize(), log(), &why))
        << why;
    EXPECT_TRUE(SameDatasetSummary(mapped.summary(), data_->stats, &why))
        << why;
    ASSERT_EQ(mapped.NumDistinct(), log().NumDistinct());
    EXPECT_EQ(mapped.TotalQueries(), log().TotalQueries());
    EXPECT_EQ(mapped.NumFeatures(), log().NumFeatures());
    const LogView view(mapped);
    for (std::size_t i = 0; i < log().NumDistinct(); ++i) {
      EXPECT_EQ(view.VectorAt(i), log().Vector(i)) << i;
      EXPECT_EQ(mapped.Multiplicity(i), log().Multiplicity(i)) << i;
      EXPECT_EQ(std::string(mapped.SampleSql(i)), log().SampleSql(i)) << i;
    }
    for (const FeatureVec& q : battery_) {
      EXPECT_EQ(mapped.CountContaining(q), log().CountContaining(q))
          << IdList(q.ids);
    }
  }

  /// `model` as comparable lines: its totals, one ComponentKey per
  /// component, then the bits of each battery answer.
  std::vector<std::string> Print(const WorkloadModel& model) const {
    std::ostringstream totals;
    totals << model.EncoderName() << " k" << model.NumComponents() << " v"
           << model.TotalVerbosity() << " n" << model.LogSize() << " e"
           << Bits(model.Error()) << " b" << Bits(model.BaseError());
    std::vector<std::string> lines = {totals.str()};
    for (std::size_t c = 0; c < model.NumComponents(); ++c) {
      lines.push_back("component " + ComponentKey(model, c));
    }
    for (const FeatureVec& q : battery_) {
      lines.push_back("estimate " + IdList(q.ids) + " " +
                      std::to_string(Bits(model.EstimateCount(q))) + " " +
                      std::to_string(Bits(model.EstimateMarginal(q))));
    }
    return lines;
  }

  /// The result every other route must reproduce, printed once.
  struct Reference {
    LogRSummary summary;
    std::string bytes;
    std::vector<std::string> print;
  };

  Reference Ref(LogRSummary summary) const {
    Reference ref;
    ref.bytes = Bytes(log().vocabulary(), summary.Model());
    ref.print = Print(summary.Model());
    ref.summary = std::move(summary);
    return ref;
  }

  /// `model` is the reference model to the bit.
  void ExpectSameModel(const WorkloadModel& model,
                       const Reference& want) const {
    const std::vector<std::string> got = Print(model);
    ASSERT_EQ(got.size(), want.print.size())
        << got[0] << " vs " << want.print[0];
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want.print[i]);
    }
  }

  /// A second route to `want`: the same bytes (written with `vocab`,
  /// the route's own codebook), assignment and model.
  void ExpectSameRun(const Vocabulary& vocab, const LogRSummary& got,
                     const Reference& want) const {
    EXPECT_EQ(Bytes(vocab, got.Model()), want.bytes);
    EXPECT_EQ(got.assignment, want.summary.assignment);
    ExpectSameModel(got.Model(), want);
  }

  /// Compress with `opts` on explicit pools of 1, 3 and 4 threads gives
  /// `want`, the shared-pool run.
  void ExpectSameAtEveryPoolSize(LogROptions opts,
                                 const Reference& want) const {
    for (std::size_t threads : {1u, 3u, 4u}) {
      SCOPED_TRACE(std::to_string(threads) + " threads");
      ThreadPool pool(threads);
      opts.pool = &pool;
      ExpectSameRun(log().vocabulary(), Compress(log(), opts), want);
    }
  }

  /// CompressAdaptive from the text log and from the mmap'd .logrl, on
  /// pools of 1 and 4 threads, gives one summary.
  void ExpectAdaptiveMatches(const MmapQueryLog& mapped) const {
    ThreadPool one(1);
    ThreadPool four(4);
    LogROptions opts = opts_;
    opts.pool = &one;
    const Reference want = Ref(CompressAdaptive(log(), opts));
    EXPECT_STREQ(want.summary.Model().EncoderName(), opts_.encoder.c_str());
    {
      SCOPED_TRACE(".logrl, 1 thread");
      ExpectSameRun(mapped.vocabulary(), CompressAdaptive(mapped, opts),
                    want);
    }
    opts.pool = &four;
    {
      SCOPED_TRACE("text, 4 threads");
      ExpectSameRun(log().vocabulary(), CompressAdaptive(log(), opts), want);
    }
    {
      SCOPED_TRACE(".logrl, 4 threads");
      ExpectSameRun(mapped.vocabulary(), CompressAdaptive(mapped, opts),
                    want);
    }
  }

  /// Write, read, write again gives the same bytes; the file starts
  /// with the summary magic, its codebook is the log's, and the reloaded
  /// model is the in-memory one to the bit, down to every component's
  /// marginal of every feature.
  void ExpectReloadMatches(const Reference& want) const {
    const std::string& bytes = want.bytes;
    ASSERT_GE(bytes.size(), kSummaryHeaderSize);
    EXPECT_EQ(
        std::memcmp(bytes.data(), kSummaryMagic, sizeof(kSummaryMagic)), 0);
    std::istringstream in(bytes);
    PersistedSummary loaded;
    std::string error;
    ASSERT_TRUE(ReadSummary(&in, &loaded, &error)) << error;
    ASSERT_EQ(loaded.vocabulary.size(), log().vocabulary().size());
    for (FeatureId f = 0; f < log().vocabulary().size(); ++f) {
      EXPECT_EQ(loaded.vocabulary.Get(f), log().vocabulary().Get(f)) << f;
    }
    EXPECT_EQ(Bytes(loaded.vocabulary, *loaded.model), bytes);
    ExpectSameModel(*loaded.model, want);
    const WorkloadModel& model = want.summary.Model();
    ASSERT_EQ(loaded.model->NumComponents(), model.NumComponents());
    for (std::size_t c = 0; c < model.NumComponents(); ++c) {
      for (FeatureId f = 0; f < log().NumFeatures(); ++f) {
        EXPECT_EQ(Bits(loaded.model->ComponentMarginal(c, f)),
                  Bits(model.ComponentMarginal(c, f)))
            << "component " << c << " feature " << f;
      }
    }
  }

  /// The published summary file reads back to the same bytes, and the
  /// battery served from it over a unix socket equals the in-memory
  /// model bit for bit.
  void ExpectServedMatches(const Reference& want) {
    const WorkloadModel& model = want.summary.Model();
    const std::string serve_dir = dir_ + "/serve";
    const std::string path = serve_dir + "/m.logr";
    std::string error;
    ASSERT_TRUE(WriteSummaryFile(path, log().vocabulary(), model, &error))
        << error;
    PersistedSummary loaded;
    ASSERT_TRUE(ReadSummaryFile(path, &loaded, &error)) << error;
    EXPECT_EQ(Bytes(loaded.vocabulary, *loaded.model), want.bytes);
    registry_ = std::make_unique<SummaryRegistry>(serve_dir);
    daemon_ = std::make_unique<ServeDaemon>(registry_.get());
    ServeOptions sopts;
    sopts.listen = "unix:" + serve_dir + "/sock";
    sopts.rescan_interval_ms = 0;
    ASSERT_TRUE(daemon_->Start(sopts, &error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(daemon_->endpoint(), &error)) << error;
    for (const FeatureVec& q : battery_) {
      std::string response;
      ASSERT_TRUE(
          client.Request("estimate m " + IdList(q.ids), &response, &error))
          << error;
      ASSERT_EQ(response.rfind("ok count=", 0), 0u) << response;
      EXPECT_EQ(Field(response, "count"), model.EstimateCount(q))
          << IdList(q.ids);
      EXPECT_EQ(Field(response, "marginal"), model.EstimateMarginal(q))
          << IdList(q.ids);
    }
    stopper_ = std::thread([this] { daemon_->Stop(); });
  }

  /// CompressSharded at S=1 is the monolithic fit: Reconcile has nothing
  /// to fuse and Merge only orders the components canonically. So the
  /// components match as a multiset, and the assignments describe the
  /// same partition up to relabeling.
  void ExpectSingleShardMatches(const LogRSummary& mono) const {
    LogROptions opts = opts_;
    opts.num_shards = 1;
    const LogRSummary one = CompressSharded(log(), opts);
    const WorkloadModel& want = mono.Model();
    const WorkloadModel& got = one.Model();
    EXPECT_STREQ(got.EncoderName(), want.EncoderName());
    EXPECT_EQ(got.TotalVerbosity(), want.TotalVerbosity());
    EXPECT_EQ(got.LogSize(), want.LogSize());
    EXPECT_NEAR(got.Error(), want.Error(), 1e-12);
    auto sorted_keys = [&](const WorkloadModel& model) {
      std::vector<std::string> keys;
      for (std::size_t c = 0; c < model.NumComponents(); ++c) {
        keys.push_back(ComponentKey(model, c));
      }
      std::sort(keys.begin(), keys.end());
      return keys;
    };
    EXPECT_EQ(sorted_keys(got), sorted_keys(want));
    ASSERT_EQ(one.assignment.size(), mono.assignment.size());
    std::map<int, int> forward;
    std::map<int, int> backward;
    for (std::size_t i = 0; i < mono.assignment.size(); ++i) {
      const int a = mono.assignment[i];
      const int b = one.assignment[i];
      EXPECT_EQ(forward.emplace(a, b).first->second, b) << "index " << i;
      EXPECT_EQ(backward.emplace(b, a).first->second, a) << "index " << i;
    }
  }

  /// Each shard compressed on its own, round-tripped through the summary
  /// format and merged offline equals the in-process naive S=4 bytes.
  void ExpectOfflineMergeMatches(const std::string& naive_sharded) const {
    const LogROptions sharded = Sharded(opts_.encoder);
    LogROptions per_shard = sharded;
    per_shard.num_clusters = ClustersPerShard(
        sharded.num_clusters, sharded.num_shards);
    per_shard.num_shards = 1;
    const std::vector<QueryLog> shards = ShardLogs();
    std::vector<PersistedSummary> loaded(shards.size());
    std::string error;
    for (std::size_t s = 0; s < shards.size(); ++s) {
      std::istringstream in(Bytes(shards[s].vocabulary(),
                                  Compress(shards[s], per_shard).Model()));
      ASSERT_TRUE(ReadSummary(&in, &loaded[s], &error)) << error;
    }
    PersistedSummary merged;
    ASSERT_TRUE(MergeSummaries(loaded, opts_.num_clusters, sharded.pool,
                               &merged, &error))
        << error;
    EXPECT_EQ(Bytes(merged.vocabulary, *merged.model), naive_sharded);
  }

  /// Fork-mode workers over the shard files `logr_cli split` writes
  /// each run once, fresh, and gather to the in-process S=4 bytes; the
  /// summaries they spooled merge offline to the same bytes.
  void ExpectDistributedMatches(const std::string& sharded_bytes) {
    // A forked worker must not inherit the daemon's threads halfway
    // through their shutdown.
    JoinStopper();
    std::vector<ShardFile> files;
    std::string error;
    ASSERT_TRUE(WriteShardFiles(LogView(log()), kShards, dir_ + "/shards",
                                Label(GetParam()), &files, &error))
        << error;
    std::vector<std::string> paths;
    for (const ShardFile& f : files) paths.push_back(f.path);
    DistributedOptions dopts;
    dopts.num_workers = 2;
    dopts.compression = opts_;
    dopts.spool_dir = dir_ + "/spool";
    DistributedResult result;
    ASSERT_TRUE(CompressDistributed(paths, dopts, &result, &error)) << error;
    EXPECT_EQ(result.workers_failed, 0u);
    EXPECT_EQ(result.workers_launched, files.size());
    ASSERT_EQ(result.shards.size(), files.size());
    for (const ShardReport& r : result.shards) {
      EXPECT_EQ(r.attempts, 1) << r.shard_path;
      EXPECT_FALSE(r.reused) << r.shard_path;
      EXPECT_FALSE(r.inprocess) << r.shard_path;
    }
    EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
              sharded_bytes);

    std::vector<PersistedSummary> parts(result.shards.size());
    for (std::size_t s = 0; s < parts.size(); ++s) {
      ASSERT_TRUE(ReadSummaryFile(result.shards[s].summary_path, &parts[s],
                                  &error))
          << error;
    }
    PersistedSummary merged;
    ASSERT_TRUE(MergeSummaries(parts, opts_.num_clusters, opts_.pool,
                               &merged, &error))
        << error;
    EXPECT_EQ(Bytes(merged.vocabulary, *merged.model), sharded_bytes);
  }

  const Dataset* data_ = nullptr;
  LogROptions opts_;
  std::vector<FeatureVec> battery_;
  std::string dir_;
  std::unique_ptr<SummaryRegistry> registry_;
  std::unique_ptr<ServeDaemon> daemon_;
  /// Runs daemon_->Stop(). The reactors notice the drain only at their
  /// next poll tick (up to 100 ms), a wait the legs after the served
  /// one overlap; the distributed leg and TearDown join it.
  std::thread stopper_;
};

TEST_P(EquivalenceTest, EveryPathAgrees) {
  const std::string logrl = dir_ + "/log.logrl";
  std::string error;
  ASSERT_TRUE(BinaryLogWriter::WriteFile(logrl, log(), data_->stats, &error))
      << error;
  MmapQueryLog mapped;
  ASSERT_TRUE(MmapQueryLog::Open(logrl, &mapped, &error)) << error;
  {
    SCOPED_TRACE("text vs .logrl");
    ExpectBinaryLogMatchesText(mapped);
  }

  // Monolithic: the .logrl is compressed through its mmap view, not a
  // loaded QueryLog (the clusterer still copies each vector out of the
  // view), and one Compress builds one packed pool.
  const Reference mono = Ref(Compress(log(), opts_));
  EXPECT_EQ(mono.summary.pool_builds, 1u);
  EXPECT_STREQ(mono.summary.Model().EncoderName(), opts_.encoder.c_str());
  {
    SCOPED_TRACE("served");
    ExpectServedMatches(mono);
  }
  {
    SCOPED_TRACE("monolithic from .logrl");
    const LogRSummary from_mmap = Compress(mapped, opts_);
    EXPECT_EQ(from_mmap.pool_builds, 1u);
    ExpectSameRun(mapped.vocabulary(), from_mmap, mono);
  }
  {
    SCOPED_TRACE("monolithic pool sizes");
    ExpectSameAtEveryPoolSize(opts_, mono);
  }
  {
    SCOPED_TRACE("adaptive");
    ExpectAdaptiveMatches(mapped);
  }
  {
    SCOPED_TRACE("reload");
    ExpectReloadMatches(mono);
  }

  Encoder encoder = Encoder::kNaive;
  ASSERT_TRUE(ParseEncoder(opts_.encoder, &encoder)) << opts_.encoder;
  if (!Mergeable(encoder)) return;
  {
    SCOPED_TRACE("S=1");
    ExpectSingleShardMatches(mono.summary);
  }
  const Reference sharded = Ref(Compress(log(), Sharded(opts_.encoder)));
  {
    SCOPED_TRACE("S=4 from .logrl");
    ExpectSameRun(mapped.vocabulary(),
                  Compress(mapped, Sharded(opts_.encoder)), sharded);
  }
  {
    SCOPED_TRACE("S=4 pool sizes");
    ExpectSameAtEveryPoolSize(Sharded(opts_.encoder), sharded);
  }
  const std::string naive_sharded =
      opts_.encoder == "naive"
          ? sharded.bytes
          : Bytes(log().vocabulary(),
                  Compress(log(), Sharded("naive")).Model());
  {
    SCOPED_TRACE("offline merge");
    ExpectOfflineMergeMatches(naive_sharded);
  }
  if (opts_.encoder != "naive") return;
  {
    SCOPED_TRACE("distributed");
    ExpectDistributedMatches(sharded.bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, EquivalenceTest,
    ::testing::Values(Case{"bank", "naive"}, Case{"bank", "refined"},
                      Case{"bank", "pattern"}, Case{"pocket", "naive"},
                      Case{"pocket", "refined"}, Case{"pocket", "pattern"},
                      Case{"grouped", "naive"}, Case{"grouped", "refined"},
                      Case{"grouped", "pattern"},
                      Case{"bank", "naive", "hierarchical"},
                      Case{"bank", "naive", "hamming"}),
    CaseName);

}  // namespace
}  // namespace logr
