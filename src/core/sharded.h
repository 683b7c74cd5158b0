// Sharded compression: partition → per-shard pipelines → mixture
// merge/reconcile.
//
// The paper's target workloads are far larger than one pipeline pass
// wants to hold (the bank log alone is 73M operations, Sec. 7).
// ShardedCompressor splits a QueryLog's distinct vectors into S shards,
// runs one CompressionPipeline per shard across the thread pool, then
// merges the per-shard mixtures (NaiveMixtureEncoding::Merge) and
// reconciles the pooled components back down to the requested K
// (NaiveMixtureEncoding::Reconcile) by nearest-component-chain
// agglomeration with exact fused-error linkage.
//
// Determinism contract: both shard policies assign each distinct vector
// to exactly one shard from the data alone (never from thread timing),
// every shard pipeline runs with a serial inner pool into its own
// result slot, and the merge orders components canonically — so the
// output is bit-identical for any thread count and any shard order.
// Because shards partition the distinct vectors, the merge itself is
// exact: only the reconcile step (absent when S*K <= K, e.g. S = 1)
// approximates.
#ifndef LOGR_CORE_SHARDED_H_
#define LOGR_CORE_SHARDED_H_

#include <vector>

#include "core/pipeline.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

class ShardedCompressor {
 public:
  /// The log behind `log` must outlive the compressor (a QueryLog or an
  /// MmapQueryLog; both convert implicitly). Shard count and policy come
  /// from `opts` (num_shards, shard_policy); each shard is compressed to
  /// opts.num_clusters components and the merged pool is reconciled back
  /// to opts.num_clusters.
  ShardedCompressor(const LogView& log, const LogROptions& opts);

  /// Partition → per-shard pipelines → merge → reconcile → (refine).
  /// The summary has the same shape as a monolithic Compress: a global
  /// assignment over the log's distinct vectors, an encoding whose
  /// components carry global member indices, and stage timings (CPU
  /// seconds summed across shards).
  LogRSummary Run();

  /// Effective per-shard cluster count: `num_clusters` for a single
  /// shard (so S = 1 reproduces the monolithic fit bit for bit), 2× that
  /// otherwise — pooling finer pieces lets the reconcile
  /// regroup across shard boundaries (the chunked cluster-then-merge
  /// recipe of Logzip / LogShrink). An offline workflow that compresses
  /// shards separately for a later merge should compress each part at
  /// this K to match the in-process result; distributed workers do.
  static std::size_t ClustersPerShard(std::size_t num_clusters,
                                      std::size_t num_shards);

  /// The distinct-index partition for `policy`: every index in
  /// [0, log.NumDistinct()) appears in exactly one shard; empty shards
  /// are dropped. Deterministic in the log content alone (the hash runs
  /// over the raw feature-id bytes, so a heap log and its mmap'd binary
  /// image shard identically).
  static std::vector<std::vector<std::size_t>> PartitionIndices(
      const LogView& log, std::size_t num_shards, ShardPolicy policy);

 private:
  LogView log_;
  LogROptions opts_;
};

/// Convenience wrapper: ShardedCompressor(log, opts).Run(). Compress()
/// routes here when opts.num_shards > 1.
LogRSummary CompressSharded(const LogView& log, const LogROptions& opts);

}  // namespace logr

#endif  // LOGR_CORE_SHARDED_H_
