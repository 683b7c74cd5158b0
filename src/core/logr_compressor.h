// LogR: the paper's pattern-mixture compression scheme (Section 6).
//
// Compression = partition the log's distinct queries by feature overlap
// (any ClustererRegistry backend: k-means / spectral / hierarchical /
// application-registered, Sec. 6.1), then summarize each partition with
// any EncoderRegistry backend ("naive", "refined", "pattern", or
// application-registered; LogROptions::encoder). The tunable parameter
// is the number of clusters K (more clusters -> lower Error, higher
// Total Verbosity), or equivalently an Error target reached by growing
// K. Every summary exposes the WorkloadModel analytics facade
// (LogRSummary::Model()) — consumers never touch a concrete encoding.
//
// The three entry points below are thin strategy wrappers over the one
// staged engine in core/pipeline.h (cluster -> encode).
#ifndef LOGR_CORE_LOGR_COMPRESSOR_H_
#define LOGR_CORE_LOGR_COMPRESSOR_H_

#include "core/pipeline.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

/// Compresses `log` into `opts.num_clusters` partitions summarized by
/// the registry-resolved encoder (opts.encoder; "naive" by default).
/// The log is read through a LogView: pass a QueryLog or an
/// MmapQueryLog (both convert implicitly) — an mmap'd .logrl is
/// compressed in place, no heap copy on the hot path, with a
/// bit-identical summary either way. When opts.num_shards > 1 the log
/// is compressed shard-wise (one pipeline per shard, merged and
/// reconciled back to num_clusters; see core/sharded.h — mergeable
/// encoders only) with bit-deterministic results for any thread count
/// and shard order.
LogRSummary Compress(const LogView& log, const LogROptions& opts);

/// Grows K until the generalized Reproduction Error drops to
/// `error_target` or K reaches `max_clusters`, returning the first
/// summary meeting the target. Runs on the hierarchical backend (one
/// agglomeration, monotone cuts) unless `opts.backend` names another.
LogRSummary CompressToErrorTarget(const LogView& log, double error_target,
                                  std::size_t max_clusters,
                                  const LogROptions& opts);

/// CompressToErrorTarget for several targets at once, over one pipeline:
/// the backend is fitted once and the distinct vectors are packed once
/// (LogRSummary::pool_builds stays 1 for every returned summary), so an
/// error/verbosity trade-off sweep costs one fit plus cheap re-cuts
/// instead of targets.size() full compressions. Summaries are returned
/// in target order; each meets its target exactly as the single-target
/// entry point would.
std::vector<LogRSummary> CompressToErrorTargets(
    const LogView& log, const std::vector<double>& error_targets,
    std::size_t max_clusters, const LogROptions& opts);

/// Adaptive top-down refinement: starting from one cluster, repeatedly
/// bisect (configured backend, k = 2) the component contributing the most
/// weighted Reproduction Error, until `num_clusters` components exist or
/// all components are error-free. This realizes the paper's Appendix-E
/// observation that messy clusters "need further sub-clustering", spends
/// the cluster budget where the Error lives, and yields monotone
/// refinements like hierarchical cuts while keeping k-means locality.
LogRSummary CompressAdaptive(const LogView& log, std::size_t num_clusters,
                             const LogROptions& opts);

}  // namespace logr

#endif  // LOGR_CORE_LOGR_COMPRESSOR_H_
