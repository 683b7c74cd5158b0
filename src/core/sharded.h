// Sharded compression: partition → per-shard fits → mixture
// merge/reconcile.
//
// The paper's target workloads are far larger than one compression pass
// wants to hold (the bank log alone is 73M operations, Sec. 7).
// CompressSharded splits a log's distinct vectors into S shards,
// fits each shard with CompressShard across the thread pool, then
// merges the per-shard mixtures (NaiveMixtureEncoding::Merge) and
// reconciles the pooled components back down to the requested K
// (NaiveMixtureEncoding::Reconcile) by nearest-component-chain
// agglomeration with exact fused-error linkage.
//
// Determinism contract: the split assigns each distinct vector to
// exactly one shard by a stable hash of its features (never by thread
// timing), every shard fit runs with a serial inner pool into its own
// result slot, and the merge orders components canonically — so the
// output is bit-identical for any thread count and any shard order.
// Because shards partition the distinct vectors, the merge itself is
// exact: only the reconcile step (absent when S*K <= K, e.g. S = 1)
// approximates.
#ifndef LOGR_CORE_SHARDED_H_
#define LOGR_CORE_SHARDED_H_

#include <vector>

#include "core/logr_compressor.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

/// Partition → per-shard fits → merge → reconcile → (refine).
/// PartitionIndices splits the log into opts.num_shards shards; each
/// shard is compressed to ClustersPerShard components and the merged
/// pool is reconciled back to opts.num_clusters. The summary has the
/// same shape as a monolithic Compress: a global assignment over the
/// log's distinct vectors, an encoding whose components carry global
/// member indices, and stage timings (cluster_seconds and pack_seconds
/// summed across shards; pool_builds counted over the whole run).
/// Compress() routes here when opts.num_shards > 1.
LogRSummary CompressSharded(const LogView& log, const LogROptions& opts);

/// One shard's fit, shared by CompressSharded and distributed workers
/// (core/distributed.h) so both merge the same mixtures: a single-shard
/// Compress of `shard` into opts.num_clusters clusters (the per-shard
/// K, ClustersPerShard) with opts' method, seed and n_init, the naive
/// encoder (shards merge through the naive family) and a pool with no
/// threads. The thread-free pool lets the fit run inside a shard loop
/// that already occupies the shared pool's workers, and is fork-safe: a
/// forked worker never waits on threads that did not survive the fork.
LogRSummary CompressShard(const LogView& shard, const LogROptions& opts);

/// Effective per-shard cluster count: `num_clusters` for a single
/// shard (so S = 1 reproduces the monolithic fit bit for bit), 2× that
/// (saturating at SIZE_MAX) otherwise — pooling finer pieces lets the
/// reconcile regroup across shard boundaries (the chunked
/// cluster-then-merge recipe of Logzip / LogShrink). An offline workflow
/// that compresses shards separately for a later merge should compress
/// each part at this K to match the in-process result; distributed
/// workers do.
std::size_t ClustersPerShard(std::size_t num_clusters, std::size_t num_shards);

/// The distinct-index partition every sharded path shares: index i goes
/// to shard StableVectorHash(vector i) % num_shards, so every index in
/// [0, log.NumDistinct()) appears in exactly one shard; empty shards are
/// dropped, the rest come in ascending bucket order with ascending
/// indices, and memory is O(NumDistinct) at any num_shards.
/// Deterministic in the log content alone (the hash runs over the raw
/// feature-id bytes, so a heap log and its mmap'd binary image shard
/// identically).
std::vector<std::vector<std::size_t>> PartitionIndices(const LogView& log,
                                                       std::size_t num_shards);

}  // namespace logr

#endif  // LOGR_CORE_SHARDED_H_
