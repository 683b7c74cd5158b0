// Path-equivalence oracle: every route from a log to an estimate gives
// the same encoding and the same numbers. Each case is one dataset
// (bank, PocketData, a seeded grouped random log) under one encoder
// (naive, refined, pattern), and runs the log through every path: SQL
// text and the mmap'd .logrl, monolithic and S=4 sharded, the offline
// summary merge, fork-mode distributed workers, a write/read reload and
// a unix-socket ServeDaemon. Summaries are held to byte equality and a
// 64-query estimate battery to bit equality.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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
#include "workload/binary_log.h"
#include "workload/log_view.h"

namespace logr {
namespace {

constexpr std::size_t kShards = 4;

struct Dataset {
  QueryLog log;
  /// The Table-1 block the .logrl carries.
  DatasetSummary stats;
  /// K and restarts; each case sets the encoder.
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

/// Each log is built once and shared by its three encoder cases.
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

std::string IdList(const FeatureVec& q) {
  std::string out;
  for (FeatureId f : q.ids) {
    if (!out.empty()) out += ",";
    out += std::to_string(f);
  }
  return out;
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
};

std::string Label(const Case& c) {
  return std::string(c.dataset) + "_" + c.encoder;
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
    dir_ = ::testing::TempDir() + "logr_equiv_" + Label(GetParam()) + "_" +
           std::to_string(::getpid());
    std::string error;
    ASSERT_TRUE(EnsureDirectory(dir_ + "/serve", &error)) << error;
    ASSERT_TRUE(EnsureDirectory(dir_ + "/shards", &error)) << error;
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
  /// the text load: the same log and the same Table-1 block.
  void ExpectBinaryLogMatchesText(const MmapQueryLog& mapped) const {
    EXPECT_TRUE(mapped.mapped());
    std::string why;
    EXPECT_TRUE(SameQueryLog(LogView(mapped).Materialize(), log(), &why))
        << why;
    EXPECT_TRUE(SameDatasetSummary(mapped.summary(), data_->stats, &why))
        << why;
  }

  /// Write, read, write again gives the same bytes, and the reloaded
  /// model answers exactly as the in-memory one.
  void ExpectReloadMatches(const std::string& bytes,
                           const WorkloadModel& model) const {
    std::istringstream in(bytes);
    PersistedSummary loaded;
    std::string error;
    ASSERT_TRUE(ReadSummary(&in, &loaded, &error)) << error;
    EXPECT_EQ(Bytes(loaded.vocabulary, *loaded.model), bytes);
    const WorkloadModel& back = *loaded.model;
    EXPECT_STREQ(back.EncoderName(), model.EncoderName());
    EXPECT_EQ(back.NumComponents(), model.NumComponents());
    EXPECT_EQ(back.TotalVerbosity(), model.TotalVerbosity());
    EXPECT_EQ(back.Error(), model.Error());
    EXPECT_EQ(back.LogSize(), model.LogSize());
    for (const FeatureVec& q : Battery(log())) {
      EXPECT_EQ(back.EstimateCount(q), model.EstimateCount(q)) << IdList(q);
      EXPECT_EQ(back.EstimateMarginal(q), model.EstimateMarginal(q))
          << IdList(q);
    }
  }

  /// The battery served over a unix socket from the published summary
  /// file equals the in-memory model bit for bit.
  void ExpectServedMatches(const WorkloadModel& model) const {
    const std::string serve_dir = dir_ + "/serve";
    std::string error;
    ASSERT_TRUE(WriteSummaryFile(serve_dir + "/m.logr", log().vocabulary(),
                                 model, &error))
        << error;
    SummaryRegistry registry(serve_dir);
    ServeDaemon daemon(&registry);
    ServeOptions sopts;
    sopts.listen = "unix:" + serve_dir + "/sock";
    sopts.rescan_interval_ms = 0;
    ASSERT_TRUE(daemon.Start(sopts, &error)) << error;
    ServeClient client;
    ASSERT_TRUE(client.Connect(daemon.endpoint(), &error)) << error;
    for (const FeatureVec& q : Battery(log())) {
      std::string response;
      ASSERT_TRUE(client.Request("estimate m " + IdList(q), &response, &error))
          << error;
      ASSERT_EQ(response.rfind("ok count=", 0), 0u) << response;
      EXPECT_EQ(Field(response, "count"), model.EstimateCount(q)) << IdList(q);
      EXPECT_EQ(Field(response, "marginal"), model.EstimateMarginal(q))
          << IdList(q);
    }
    daemon.Stop();
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
  /// gather to the in-process S=4 bytes.
  void ExpectDistributedMatches(const std::string& sharded_bytes) const {
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
    for (const ShardReport& r : result.shards) {
      EXPECT_FALSE(r.inprocess) << r.shard_path;
    }
    EXPECT_EQ(Bytes(result.summary.vocabulary, *result.summary.model),
              sharded_bytes);
  }

  const Dataset* data_ = nullptr;
  LogROptions opts_;
  std::string dir_;
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

  // Monolithic: the zero-copy mmap view feeds the pipeline directly, no
  // heap copy, and one Compress builds one packed pool.
  const LogRSummary from_text = Compress(log(), opts_);
  const LogRSummary from_mmap = Compress(mapped, opts_);
  const std::string bytes = Bytes(log().vocabulary(), from_text.Model());
  EXPECT_EQ(Bytes(mapped.vocabulary(), from_mmap.Model()), bytes);
  EXPECT_EQ(from_text.pool_builds, 1u);
  EXPECT_EQ(from_mmap.pool_builds, 1u);
  EXPECT_STREQ(from_text.Model().EncoderName(), opts_.encoder.c_str());
  {
    SCOPED_TRACE("reload");
    ExpectReloadMatches(bytes, from_text.Model());
  }
  {
    SCOPED_TRACE("served");
    ExpectServedMatches(from_text.Model());
  }

  Encoder encoder = Encoder::kNaive;
  ASSERT_TRUE(ParseEncoder(opts_.encoder, &encoder)) << opts_.encoder;
  if (!Mergeable(encoder)) return;
  const std::string sharded = Bytes(
      log().vocabulary(), Compress(log(), Sharded(opts_.encoder)).Model());
  EXPECT_EQ(Bytes(mapped.vocabulary(),
                  Compress(mapped, Sharded(opts_.encoder)).Model()),
            sharded);
  const std::string naive_sharded =
      opts_.encoder == "naive"
          ? sharded
          : Bytes(log().vocabulary(),
                  Compress(log(), Sharded("naive")).Model());
  {
    SCOPED_TRACE("offline merge");
    ExpectOfflineMergeMatches(naive_sharded);
  }
  if (opts_.encoder != "naive") return;
  {
    SCOPED_TRACE("distributed");
    ExpectDistributedMatches(sharded);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPaths, EquivalenceTest,
    ::testing::Values(Case{"bank", "naive"}, Case{"bank", "refined"},
                      Case{"bank", "pattern"}, Case{"pocket", "naive"},
                      Case{"pocket", "refined"}, Case{"pocket", "pattern"},
                      Case{"grouped", "naive"}, Case{"grouped", "refined"},
                      Case{"grouped", "pattern"}),
    CaseName);

}  // namespace
}  // namespace logr
