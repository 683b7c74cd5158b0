// LogR: the paper's pattern-mixture compression scheme (Section 6).
//
// Compression = partition the log's distinct queries by feature overlap
// (one ClusteringMethod: k-means / spectral / hierarchical, Sec. 6.1;
// LogROptions::method), then summarize each partition with one of the
// three encoders (an Encoder: "naive", "refined" or "pattern";
// LogROptions::encoder). The tunable parameter is the number of
// clusters K (more clusters -> lower Error, higher Total Verbosity).
// Every summary exposes the WorkloadModel analytics facade
// (LogRSummary::Model()) — consumers never touch a concrete encoding.
//
// Compress picks the partition in one Cluster call; CompressAdaptive
// picks it by bisecting the worst cluster (Appendix E). Both parse
// LogROptions::encoder into an Encoder once and call that encoder's
// function (core/encoder.h) on the partition to build the summary.
#ifndef LOGR_CORE_LOGR_COMPRESSOR_H_
#define LOGR_CORE_LOGR_COMPRESSOR_H_

#include <memory>
#include <string>
#include <vector>

#include "cluster/clusterer.h"
#include "core/encoder.h"
#include "core/mixture.h"
#include "util/thread_pool.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

struct LogROptions {
  ClusteringMethod method = ClusteringMethod::kKMeansEuclidean;
  std::size_t num_clusters = 1;
  std::uint64_t seed = 17;
  /// Random restarts for k-means style stages.
  int n_init = 4;
  /// Worker pool for data-parallel stages; nullptr selects
  /// ThreadPool::Shared(). Never changes results, only wall-clock.
  ThreadPool* pool = nullptr;
  /// Encoder for the encode stage, an EncoderName spelling ("naive",
  /// "refined" or "pattern"); ParseEncoder reads it.
  std::string encoder = "naive";
  /// RefineMixture's budget for the "refined" encoder (Sec. 6.4); other
  /// encoders ignore it.
  std::size_t refine_patterns = 0;
  /// EncodePatterns' budget for the "pattern" encoder; other encoders
  /// ignore it.
  std::size_t pattern_budget = 0;
  /// When > 1, Compress routes through CompressSharded: the log's
  /// distinct vectors are split into this many shards by a stable hash
  /// (PartitionIndices), each shard is compressed on its own, and the
  /// per-shard mixtures are merged and reconciled back to num_clusters
  /// (core/sharded.h). Results are bit-deterministic for any thread
  /// count and shard order.
  std::size_t num_shards = 1;
};

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
  /// PackedVecPool builds observed during this compression (a delta of
  /// the process-wide counter, so concurrent compressions overlap). The
  /// zero-copy contract is exactly 1 per single-shard Compress and one
  /// per non-empty shard of a sharded run. CompressAdaptive builds no
  /// shared pool and reports 0, plus any pool its method packs locally
  /// for a bisected subset (spectral and hierarchical do).
  std::uint64_t pool_builds = 0;
  double total_seconds = 0.0;    // wall-clock of the whole compression

  /// Checked facade access: aborts when the summary was never filled.
  const WorkloadModel& Model() const;
};

/// Compresses `log` into `opts.num_clusters` partitions summarized by
/// the encoder opts.encoder names ("naive" by default; aborts on an
/// unknown name). The log is read through a LogView: pass a QueryLog
/// or an MmapQueryLog (both convert implicitly), with a bit-identical
/// summary either way. The distinct vectors are packed once, straight
/// from the view's id spans, into the PackedVecPool every distance
/// consumer shares; clustering and encoding copy each one (VectorAt).
/// When opts.num_shards > 1 the log is compressed shard-wise (merged
/// and reconciled back to num_clusters; see core/sharded.h — mergeable
/// encoders only) with bit-deterministic results for any thread count
/// and shard order.
LogRSummary Compress(const LogView& log, const LogROptions& opts);

/// Adaptive top-down refinement: starting from one cluster, repeatedly
/// bisect (opts.method, k = 2) the component contributing the most
/// weighted Reproduction Error, until `opts.num_clusters` components
/// exist or all components are error-free. This realizes the paper's
/// Appendix-E observation that messy clusters "need further
/// sub-clustering", spends the cluster budget where the Error lives, and
/// yields monotone refinements like hierarchical cuts while keeping
/// k-means locality. Each bisection draws its seed from Pcg32(opts.seed)
/// in a fixed order. Requires opts.num_shards <= 1.
LogRSummary CompressAdaptive(const LogView& log, const LogROptions& opts);

}  // namespace logr

#endif  // LOGR_CORE_LOGR_COMPRESSOR_H_
