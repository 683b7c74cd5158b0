// The staged compression engine behind every LogR entry point.
//
// A CompressionPipeline runs two stages over one shared
// PipelineContext (options, PRNG, stopwatch, thread pool, cached
// distinct vectors):
//
//   cluster  partition the distinct queries with one ClusteringMethod
//            (cluster/clusterer.h),
//   encode   summarize the partition with one of the built-in Encoders
//            ("naive", "refined", "pattern") into a WorkloadModel.
//
// The public compression modes — fixed K and adaptive bisection — are
// thin strategies over this one engine; see core/logr_compressor.h for
// their contracts.
#ifndef LOGR_CORE_PIPELINE_H_
#define LOGR_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "core/encoder.h"
#include "core/mixture.h"
#include "util/prng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

/// How CompressSharded partitions a log's distinct vectors into
/// shards (core/sharded.h). Both policies assign every distinct vector
/// to exactly one shard, so per-shard mixtures merge exactly.
enum class ShardPolicy {
  kHashDistinct,      // stable hash of the distinct vector ("hash")
  kContiguousRange,   // equal contiguous ranges of distinct index ("range")
};

/// CLI name of `p` ("hash" / "range").
const char* ShardPolicyName(ShardPolicy p);

/// Inverse of ShardPolicyName. Returns false for unknown names.
bool ParseShardPolicy(const std::string& name, ShardPolicy* out);

struct LogROptions {
  ClusteringMethod method = ClusteringMethod::kKMeansEuclidean;
  std::size_t num_clusters = 1;
  std::uint64_t seed = 17;
  /// Random restarts for k-means style stages.
  int n_init = 4;
  /// Worker pool for data-parallel stages; nullptr selects
  /// ThreadPool::Shared(). Never changes results, only wall-clock.
  ThreadPool* pool = nullptr;
  /// Encoder for the encode stage, resolved through FindEncoder
  /// ("naive", "refined" or "pattern").
  std::string encoder = "naive";
  /// Per-component budget of extra corr_rank-ranked patterns for the
  /// "refined" encoder (Sec. 6.4). 0 uses the encoder's default; other
  /// encoders ignore it.
  std::size_t refine_patterns = 0;
  /// Per-component pattern count for the "pattern" encoder. 0 uses the
  /// encoder's default; larger requests are clamped to the encoder's
  /// practical ceiling (12, below PatternEncoding::kMaxPatterns — the
  /// fit is exponential in the pattern count).
  std::size_t pattern_budget = 0;
  /// When > 1, Compress routes through CompressSharded: the log is
  /// split into this many shards, one pipeline runs per shard, and the
  /// per-shard mixtures are merged and reconciled back to num_clusters
  /// (core/sharded.h). Results are bit-deterministic for any thread
  /// count and shard order.
  std::size_t num_shards = 1;
  ShardPolicy shard_policy = ShardPolicy::kHashDistinct;
};

/// EncodeRequest for a K-component encode under `opts`, run on `pool`.
/// The one place LogROptions' encoder settings reach an encoder.
EncodeRequest EncodeRequestFor(const LogROptions& opts, std::size_t k,
                               ThreadPool* pool);

struct LogRSummary {
  /// The compressed workload: every analytics consumer goes through
  /// this facade (never a concrete encoding class). Shared so summaries
  /// stay cheap to copy; the model itself is immutable.
  std::shared_ptr<const WorkloadModel> model;
  std::vector<int> assignment;   // cluster per distinct vector
  double cluster_seconds = 0.0;  // wall-clock of the clustering stage
  /// Wall-clock of building the shared PackedVecPool — reported apart
  /// from cluster_seconds so packing cost is no longer silently folded
  /// into clustering time.
  double pack_seconds = 0.0;
  /// PackedVecPool builds observed during this pipeline (a delta of the
  /// process-wide counter, so concurrent pipelines overlap). The
  /// zero-copy contract is exactly 1 per single-shard Compress and one
  /// per non-empty shard of a sharded run.
  std::uint64_t pool_builds = 0;
  double total_seconds = 0.0;    // wall-clock of the whole pipeline

  /// Checked facade access: aborts when the summary was never filled.
  const WorkloadModel& Model() const;
};

/// Shared state threaded through the pipeline stages.
struct PipelineContext {
  /// View over the input log — a heap QueryLog or an mmap'd .logrl;
  /// the pipeline never materializes the latter.
  LogView log;
  LogROptions opts;
  /// Seeded from opts.seed; strategies draw per-stage seeds from it
  /// (e.g. one per adaptive bisection) in a deterministic order.
  Pcg32 rng;
  Stopwatch timer;    // started at pipeline construction
  ThreadPool* pool = nullptr;
  const Encoder* encoder = nullptr;  // FindEncoder(opts.encoder)
  std::vector<FeatureVec> vecs;      // the log's distinct vectors
  std::vector<double> weights;       // multiplicity weights
  std::size_t num_features = 0;
  /// The one packed pool per compression, built in the constructor
  /// straight from the log view's id spans and shared (via Request)
  /// with every distance/seeding consumer. Unbuilt (has_packed false)
  /// only when the universe exceeds the packed-pool budget.
  PackedVecPool packed;
  bool has_packed = false;
  /// PackedVecPool::BuildCount() at construction — EncodeStage reports
  /// the delta as LogRSummary::pool_builds.
  std::uint64_t builds_at_start = 0;

  /// ClusterRequest for a K-cluster run under these options.
  ClusterRequest Request(std::size_t k) const;
};

class CompressionPipeline {
 public:
  /// Resolves the encoder (aborts on an unknown name), caches the log's
  /// distinct vectors and weights, and builds the shared packed pool.
  /// The log behind `log` (QueryLog or MmapQueryLog — both convert
  /// implicitly) must outlive the pipeline.
  CompressionPipeline(const LogView& log, const LogROptions& opts);

  // --- stages ---------------------------------------------------------

  /// Partitions the distinct vectors into `k` clusters and charges the
  /// elapsed time to the clustering stage.
  std::vector<int> ClusterStage(std::size_t k);

  /// Encodes `assignment` with the options' encoder into a
  /// summary carrying the stage timings accumulated so far.
  LogRSummary EncodeStage(std::vector<int> assignment, std::size_t k);

  // --- strategies (one engine, two drivers) ---------------------------

  /// Compress: cluster at opts.num_clusters, encode.
  LogRSummary RunFixedK();

  /// CompressAdaptive: top-down bisection of the worst component until
  /// `num_clusters` components exist or all are error-free.
  LogRSummary RunAdaptive(std::size_t num_clusters);

 private:
  PipelineContext ctx_;
  double cluster_seconds_ = 0.0;
  double pack_seconds_ = 0.0;
};

}  // namespace logr

#endif  // LOGR_CORE_PIPELINE_H_
