// Tests for the sharded compression subsystem (core/sharded.h): shard
// partition policies, single-shard equivalence with the monolithic
// pipeline, merge/reconcile quality on the paper-shaped generators,
// bit-determinism across thread counts and shard orders, and the
// offline summary-merge path.
#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "core/logr_compressor.h"
#include "core/serialization.h"
#include "core/sharded.h"
#include "data/bank.h"
#include "data/pocketdata.h"
#include "data/sql_log.h"
#include "gtest/gtest.h"
#include "workload/log_view.h"

namespace logr {
namespace {

QueryLog PocketLog() {
  PocketDataOptions gen;
  gen.num_distinct = 200;
  gen.total_queries = 60000;
  return LoadEntries(GeneratePocketDataLog(gen)).TakeLog();
}

QueryLog BankLog() {
  BankLogOptions gen;
  gen.num_templates = 250;
  gen.total_queries = 120000;
  gen.noise_entries = 20;
  return LoadEntries(GenerateBankLog(gen)).TakeLog();
}

/// Component fingerprint for order-insensitive exact comparison.
struct ComponentKey {
  std::uint64_t log_size;
  std::vector<FeatureId> features;
  std::vector<double> marginals;
  double weight;
  double empirical;

  static ComponentKey Of(const MixtureComponent& c) {
    return {c.encoding.LogSize(), c.encoding.features(),
            c.encoding.marginals(), c.weight,
            c.encoding.EmpiricalEntropy()};
  }
  bool operator<(const ComponentKey& o) const {
    if (log_size != o.log_size) return log_size > o.log_size;
    if (features != o.features) return features < o.features;
    if (marginals != o.marginals) return marginals < o.marginals;
    if (empirical != o.empirical) return empirical < o.empirical;
    return weight < o.weight;
  }
  bool operator==(const ComponentKey& o) const {
    return log_size == o.log_size && features == o.features &&
           marginals == o.marginals && weight == o.weight &&
           empirical == o.empirical;
  }
};

/// The naive payload behind a summary's facade (these tests exercise
/// the naive merge machinery, so options pin encoder = "naive").
const NaiveMixtureEncoding& Mix(const LogRSummary& s) {
  return *s.Model().AsNaiveMixture();
}

std::vector<ComponentKey> SortedKeys(const NaiveMixtureEncoding& e) {
  std::vector<ComponentKey> keys;
  keys.reserve(e.NumComponents());
  for (std::size_t c = 0; c < e.NumComponents(); ++c) {
    keys.push_back(ComponentKey::Of(e.Component(c)));
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ShardedTest, PartitionCoversEveryIndexExactlyOnce) {
  QueryLog log = PocketLog();
  for (ShardPolicy policy :
       {ShardPolicy::kHashDistinct, ShardPolicy::kContiguousRange}) {
    for (std::size_t s : {1u, 2u, 4u, 8u}) {
      auto shards = PartitionIndices(log, s, policy);
      std::vector<int> hits(log.NumDistinct(), 0);
      for (const auto& shard : shards) {
        EXPECT_FALSE(shard.empty());
        for (std::size_t i : shard) {
          ASSERT_LT(i, log.NumDistinct());
          hits[i] += 1;
        }
      }
      for (std::size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i], 1) << ShardPolicyName(policy) << " S=" << s
                              << " index " << i;
      }
    }
  }
}

TEST(ShardedTest, SingleShardMatchesMonolithicExactly) {
  QueryLog log = PocketLog();
  LogROptions opts;
  opts.num_clusters = 6;
  opts.seed = 29;
  opts.encoder = "naive";
  LogRSummary mono = Compress(log, opts);
  opts.num_shards = 1;
  LogRSummary sharded = CompressSharded(log, opts);

  // Reconcile is the identity here (one shard's components already fit
  // K), so the summary must match the monolithic fit component for
  // component — exactly, not approximately.
  EXPECT_EQ(SortedKeys(Mix(mono)), SortedKeys(Mix(sharded)));
  EXPECT_NEAR(Mix(mono).Error(), Mix(sharded).Error(), 1e-12);
  EXPECT_EQ(Mix(mono).TotalVerbosity(), Mix(sharded).TotalVerbosity());
  EXPECT_EQ(Mix(mono).LogSize(), Mix(sharded).LogSize());

  // The assignments describe the same partition up to label renaming.
  ASSERT_EQ(mono.assignment.size(), sharded.assignment.size());
  std::map<int, int> relabel;
  for (std::size_t i = 0; i < mono.assignment.size(); ++i) {
    auto [it, inserted] =
        relabel.emplace(mono.assignment[i], sharded.assignment[i]);
    EXPECT_EQ(it->second, sharded.assignment[i]) << "index " << i;
    (void)inserted;
  }
}

TEST(ShardedTest, ErrorWithinFivePercentOfMonolithic) {
  struct Case {
    const char* name;
    QueryLog log;
  };
  std::vector<Case> cases;
  cases.push_back({"pocketdata", PocketLog()});
  cases.push_back({"bank", BankLog()});
  for (const Case& c : cases) {
    LogROptions opts;
    opts.num_clusters = 8;
    opts.seed = 17;
    opts.encoder = "naive";
    const double mono = Compress(c.log, opts).Model().Error();
    for (std::size_t s : {2u, 4u, 8u}) {
      for (ShardPolicy policy :
           {ShardPolicy::kHashDistinct, ShardPolicy::kContiguousRange}) {
        LogROptions sh = opts;
        sh.num_shards = s;
        sh.shard_policy = policy;
        LogRSummary summary = Compress(c.log, sh);
        EXPECT_LE(summary.Model().NumComponents(), 8u);
        EXPECT_LE(summary.Model().Error(), mono * 1.05 + 1e-9)
            << c.name << " S=" << s << " policy=" << ShardPolicyName(policy);
      }
    }
  }
}

TEST(ShardedTest, BitIdenticalAcrossThreadCounts) {
  QueryLog log = PocketLog();
  auto run = [&](ThreadPool* pool) {
    LogROptions opts;
    opts.num_clusters = 5;
    opts.num_shards = 4;
    opts.seed = 43;
    opts.encoder = "naive";
    opts.pool = pool;
    return CompressSharded(log, opts);
  };
  ThreadPool serial(1);
  LogRSummary base = run(&serial);
  for (std::size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    LogRSummary s = run(&pool);
    EXPECT_EQ(s.assignment, base.assignment) << threads << " threads";
    EXPECT_EQ(s.Model().Error(), base.Model().Error())
        << threads << " threads";
    EXPECT_EQ(SortedKeys(Mix(s)), SortedKeys(Mix(base)))
        << threads << " threads";
  }
}

TEST(ShardedTest, ReportsPackTimeAndOnePoolBuildPerShard) {
  // Every shard pipeline packs its own pool once; the run reports the
  // builds and the summed pack time like a monolithic Compress does.
  QueryLog log = BankLog();
  LogROptions opts;
  opts.num_clusters = 4;
  opts.num_shards = 4;
  opts.shard_policy = ShardPolicy::kHashDistinct;
  ThreadPool four(4);
  opts.pool = &four;
  const std::size_t non_empty =
      PartitionIndices(log, opts.num_shards, opts.shard_policy).size();
  ASSERT_GT(non_empty, 1u);
  const LogRSummary s = Compress(log, opts);
  EXPECT_EQ(s.pool_builds, non_empty);
  EXPECT_GT(s.pack_seconds, 0.0);
}

TEST(ShardedTest, MergeIsIndependentOfPartOrder) {
  QueryLog log = PocketLog();
  auto shards = PartitionIndices(log, 3, ShardPolicy::kHashDistinct);
  ASSERT_EQ(shards.size(), 3u);
  std::vector<NaiveMixtureEncoding> parts;
  for (const auto& indices : shards) {
    QueryLog sub = LogView(log).MaterializeSubset(indices);
    LogROptions opts;
    opts.num_clusters = 3;
    opts.encoder = "naive";
    parts.push_back(Mix(Compress(sub, opts)));
  }
  NaiveMixtureEncoding forward =
      NaiveMixtureEncoding::Merge({&parts[0], &parts[1], &parts[2]});
  NaiveMixtureEncoding shuffled =
      NaiveMixtureEncoding::Merge({&parts[2], &parts[0], &parts[1]});
  ASSERT_EQ(forward.NumComponents(), shuffled.NumComponents());
  for (std::size_t c = 0; c < forward.NumComponents(); ++c) {
    EXPECT_EQ(ComponentKey::Of(forward.Component(c)),
              ComponentKey::Of(shuffled.Component(c)))
        << "component " << c;
  }
  // Bit-equal component order implies bit-equal error sums.
  EXPECT_EQ(forward.Error(), shuffled.Error());
}

TEST(ShardedTest, ReconcileFusesDisjointPartsExactly) {
  // Two logs over disjoint feature ranges: fusing their single-cluster
  // encodings must reproduce the batch single-cluster fit of the union —
  // the grouping property of entropy makes the merge exact.
  QueryLog a, b, both;
  a.Add(FeatureVec({0, 1, 2}), 6);
  a.Add(FeatureVec({0, 2}), 2);
  b.Add(FeatureVec({10, 11}), 8);
  b.Add(FeatureVec({10, 12}), 4);
  both.Add(FeatureVec({0, 1, 2}), 6);
  both.Add(FeatureVec({0, 2}), 2);
  both.Add(FeatureVec({10, 11}), 8);
  both.Add(FeatureVec({10, 12}), 4);

  NaiveMixtureEncoding enc_a =
      NaiveMixtureEncoding::FromPartition(a, {0, 0}, 1);
  NaiveMixtureEncoding enc_b =
      NaiveMixtureEncoding::FromPartition(b, {0, 0}, 1);
  NaiveMixtureEncoding pooled = NaiveMixtureEncoding::Merge({&enc_a, &enc_b});
  ASSERT_EQ(pooled.NumComponents(), 2u);

  NaiveMixtureEncoding fused = pooled.Reconcile(1);
  ASSERT_EQ(fused.NumComponents(), 1u);

  NaiveMixtureEncoding batch =
      NaiveMixtureEncoding::FromPartition(both, {0, 0, 0, 0}, 1);
  const NaiveEncoding& f = fused.Component(0).encoding;
  const NaiveEncoding& g = batch.Component(0).encoding;
  EXPECT_EQ(f.LogSize(), g.LogSize());
  ASSERT_EQ(f.features(), g.features());
  for (std::size_t i = 0; i < f.marginals().size(); ++i) {
    EXPECT_NEAR(f.marginals()[i], g.marginals()[i], 1e-12) << i;
  }
  EXPECT_NEAR(f.EmpiricalEntropy(), g.EmpiricalEntropy(), 1e-12);
  EXPECT_NEAR(f.ReproductionError(), g.ReproductionError(), 1e-12);
  EXPECT_NEAR(fused.Error(), batch.Error(), 1e-12);
}

TEST(ShardedTest, OfflineSummaryMergeMatchesInProcessSharding) {
  QueryLog log = PocketLog();
  LogROptions opts;
  opts.num_clusters = 4;
  opts.seed = 11;
  opts.encoder = "naive";

  // Compress each shard separately and round-trip it through the text
  // format — the "compress each day's log, merge the week" workflow.
  auto shards = PartitionIndices(log, 3, ShardPolicy::kHashDistinct);
  LogROptions per_shard = opts;
  per_shard.num_clusters = ClustersPerShard(opts.num_clusters, 3);
  std::vector<PersistedSummary> parts(shards.size());
  for (std::size_t s = 0; s < shards.size(); ++s) {
    QueryLog sub = LogView(log).MaterializeSubset(shards[s]);
    LogRSummary summary = Compress(sub, per_shard);
    std::stringstream buffer;
    std::string error;
    WriteSummary(sub.vocabulary(), NaiveMixtureModel(Mix(summary)), &buffer,
                 &error);
    ASSERT_TRUE(ReadSummary(&buffer, &parts[s], &error)) << error;
  }

  std::string error;
  PersistedSummary merged;
  ASSERT_TRUE(MergeSummaries(parts, opts.num_clusters, opts.pool, &merged,
                             &error))
      << error;

  LogROptions sharded_opts = opts;
  sharded_opts.num_shards = 3;
  LogRSummary in_process = CompressSharded(log, sharded_opts);

  ASSERT_EQ(merged.encoding.NumComponents(),
            Mix(in_process).NumComponents());
  for (std::size_t c = 0; c < merged.encoding.NumComponents(); ++c) {
    EXPECT_EQ(ComponentKey::Of(merged.encoding.Component(c)),
              ComponentKey::Of(Mix(in_process).Component(c)))
        << "component " << c;
  }
  EXPECT_EQ(merged.encoding.Error(), Mix(in_process).Error());
  EXPECT_EQ(merged.vocabulary.size(), log.vocabulary().size());
}

TEST(ShardedTest, MergeSummariesUnionsDistinctVocabularies) {
  // Two "days" with overlapping but distinct codebooks: the merged
  // summary must answer estimates in the union vocabulary.
  QueryLog day1, day2;
  day1.mutable_vocabulary()->Intern({FeatureClause::kSelect, "id"});
  day1.mutable_vocabulary()->Intern({FeatureClause::kFrom, "messages"});
  day1.Add(FeatureVec({0, 1}), 10);
  day2.mutable_vocabulary()->Intern({FeatureClause::kFrom, "messages"});
  day2.mutable_vocabulary()->Intern({FeatureClause::kWhere, "status = ?"});
  day2.Add(FeatureVec({0, 1}), 30);

  LogROptions opts;
  opts.num_clusters = 1;
  std::vector<PersistedSummary> parts(2);
  std::string error;
  for (std::size_t i = 0; i < 2; ++i) {
    const QueryLog& day = i == 0 ? day1 : day2;
    LogRSummary summary = Compress(day, opts);
    std::stringstream buffer;
    WriteSummary(day.vocabulary(), NaiveMixtureModel(Mix(summary)), &buffer,
                 &error);
    ASSERT_TRUE(ReadSummary(&buffer, &parts[i], &error)) << error;
  }
  PersistedSummary merged;
  ASSERT_TRUE(MergeSummaries(parts, 0, opts.pool, &merged, &error)) << error;
  EXPECT_EQ(merged.vocabulary.size(), 3u);
  EXPECT_EQ(merged.encoding.LogSize(), 40u);

  // "FROM messages" occurred in all 40 queries of the merged week. The
  // loaded facade answers identically to the payload.
  FeatureId from_id =
      merged.vocabulary.Find({FeatureClause::kFrom, "messages"});
  ASSERT_NE(from_id, Vocabulary::kNotFound);
  EXPECT_NEAR(merged.model->EstimateCount(FeatureVec({from_id})), 40.0,
              1e-9);
  // "WHERE status = ?" only on day 2.
  FeatureId where_id =
      merged.vocabulary.Find({FeatureClause::kWhere, "status = ?"});
  ASSERT_NE(where_id, Vocabulary::kNotFound);
  EXPECT_NEAR(merged.model->EstimateCount(FeatureVec({where_id})), 30.0,
              1e-9);
}

TEST(ShardedTest, MergingOverlappingSummariesKeepsErrorNonNegative) {
  // Merging two summaries of the SAME log violates the disjointness the
  // entropy grouping formula assumes. Counts still add up (they really
  // are two observations of 15 queries each) and Error must stay a
  // valid non-negative divergence instead of going negative.
  QueryLog log;
  log.mutable_vocabulary()->Intern({FeatureClause::kSelect, "id"});
  log.mutable_vocabulary()->Intern({FeatureClause::kFrom, "messages"});
  log.Add(FeatureVec({0, 1}), 10);
  log.Add(FeatureVec({1}), 5);
  LogROptions opts;
  opts.num_clusters = 1;
  opts.encoder = "naive";
  LogRSummary summary = Compress(log, opts);

  std::vector<PersistedSummary> parts(2);
  std::string error;
  for (int i = 0; i < 2; ++i) {
    std::stringstream buffer;
    WriteSummary(log.vocabulary(), NaiveMixtureModel(Mix(summary)), &buffer,
                 &error);
    ASSERT_TRUE(ReadSummary(&buffer, &parts[i], &error)) << error;
  }
  PersistedSummary merged;
  ASSERT_TRUE(MergeSummaries(parts, 1, opts.pool, &merged, &error)) << error;
  EXPECT_EQ(merged.encoding.LogSize(), 30u);
  EXPECT_GE(merged.encoding.Error(), 0.0);
  // Marginal estimates are exact regardless of the overlap.
  EXPECT_NEAR(merged.encoding.EstimateMarginal(FeatureVec({0})), 10.0 / 15.0,
              1e-12);
}

TEST(ShardedTest, ReconcileScalesPastFourThousandComponents) {
  // The former greedy polish was bounded at 1024 pooled components; the
  // nearest-component-chain agglomeration must reconcile a
  // thousand-shard-scale pool in one shot, deterministically for any
  // pool size, conserving the log size and keeping Error sane.
  constexpr std::size_t kComponents = 4200;
  constexpr std::size_t kFeatures = 64;
  std::vector<MixtureComponent> comps;
  comps.reserve(kComponents);
  std::uint64_t grand_total = 0;
  for (std::size_t c = 0; c < kComponents; ++c) {
    QueryLog part;
    const FeatureId base = static_cast<FeatureId>((c * 11) % kFeatures);
    part.Add(FeatureVec({base, static_cast<FeatureId>(
                                   (base + 1 + c % 3) % kFeatures)}),
             1 + (c % 4));
    part.Add(FeatureVec({static_cast<FeatureId>((base + 2) % kFeatures)}), 1);
    grand_total += part.TotalQueries();
    MixtureComponent comp;
    comp.encoding = NaiveEncoding::FromLog(part);
    comps.push_back(std::move(comp));
  }
  for (MixtureComponent& comp : comps) {
    comp.weight = static_cast<double>(comp.encoding.LogSize()) /
                  static_cast<double>(grand_total);
  }
  NaiveMixtureEncoding pooled =
      NaiveMixtureEncoding::FromComponents(std::move(comps));
  ASSERT_EQ(pooled.LogSize(), grand_total);

  ThreadPool four(4);
  NaiveMixtureEncoding reconciled = pooled.Reconcile(32, &four);
  EXPECT_LE(reconciled.NumComponents(), 32u);
  EXPECT_GE(reconciled.NumComponents(), 1u);
  EXPECT_EQ(reconciled.LogSize(), grand_total);
  EXPECT_GE(reconciled.Error(), 0.0);
  EXPECT_TRUE(std::isfinite(reconciled.Error()));
  double weight_sum = 0.0;
  for (std::size_t c = 0; c < reconciled.NumComponents(); ++c) {
    weight_sum += reconciled.Component(c).weight;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-9);
}

TEST(ShardedTest, ReconcileBitIdenticalAcrossPoolSizes) {
  // Cross-pool determinism of the chain reconcile, at a scale where
  // running it repeatedly stays cheap (LOGR_THREADS ∈ {1, 4} contract;
  // the 4096+ scale case above runs once).
  constexpr std::size_t kComponents = 600;
  constexpr std::size_t kFeatures = 48;
  std::vector<MixtureComponent> comps;
  std::uint64_t grand_total = 0;
  for (std::size_t c = 0; c < kComponents; ++c) {
    QueryLog part;
    const FeatureId base = static_cast<FeatureId>((c * 13) % kFeatures);
    part.Add(FeatureVec({base, static_cast<FeatureId>(
                                   (base + 1 + c % 4) % kFeatures)}),
             1 + (c % 6));
    part.Add(FeatureVec({static_cast<FeatureId>((base + 2) % kFeatures)}), 2);
    grand_total += part.TotalQueries();
    MixtureComponent comp;
    comp.encoding = NaiveEncoding::FromLog(part);
    comps.push_back(std::move(comp));
  }
  for (MixtureComponent& comp : comps) {
    comp.weight = static_cast<double>(comp.encoding.LogSize()) /
                  static_cast<double>(grand_total);
  }
  NaiveMixtureEncoding pooled =
      NaiveMixtureEncoding::FromComponents(std::move(comps));

  ThreadPool one(1);
  const NaiveMixtureEncoding baseline = pooled.Reconcile(16, &one);
  const std::vector<ComponentKey> keys = SortedKeys(baseline);
  ThreadPool four(4);
  EXPECT_EQ(SortedKeys(pooled.Reconcile(16, &four)), keys);
  EXPECT_EQ(SortedKeys(pooled.Reconcile(16, nullptr)), keys);
}

TEST(ShardedTest, MergeSummariesRejectsBadInput) {
  PersistedSummary out;
  std::string error;
  EXPECT_FALSE(MergeSummaries({}, 0, nullptr, &out, &error));
  EXPECT_FALSE(error.empty());
  // Unknown and non-mergeable encoder tags are rejected loudly.
  std::vector<PersistedSummary> one(1);
  one[0].encoder = "no-such-encoder";
  EXPECT_FALSE(MergeSummaries(one, 0, nullptr, &out, &error));
  one[0].encoder = "pattern";
  EXPECT_FALSE(MergeSummaries(one, 0, nullptr, &out, &error));
}

}  // namespace
}  // namespace logr
