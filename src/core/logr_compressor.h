// LogR: the paper's pattern-mixture compression scheme (Section 6).
//
// Compression = partition the log's distinct queries by feature overlap
// (one ClusteringMethod: k-means / spectral / hierarchical, Sec. 6.1;
// LogROptions::method), then summarize each partition with one of the
// built-in encoders ("naive", "refined", "pattern";
// LogROptions::encoder). The tunable parameter
// is the number of clusters K (more clusters -> lower Error, higher
// Total Verbosity). Every summary exposes the WorkloadModel analytics
// facade (LogRSummary::Model()) — consumers never touch a concrete
// encoding.
//
// The two entry points below are thin strategy wrappers over the one
// staged engine in core/pipeline.h (cluster -> encode).
#ifndef LOGR_CORE_LOGR_COMPRESSOR_H_
#define LOGR_CORE_LOGR_COMPRESSOR_H_

#include "core/pipeline.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

/// Compresses `log` into `opts.num_clusters` partitions summarized by
/// the encoder FindEncoder(opts.encoder) ("naive" by default).
/// The log is read through a LogView: pass a QueryLog or an
/// MmapQueryLog (both convert implicitly) — an mmap'd .logrl is
/// compressed in place, no heap copy on the hot path, with a
/// bit-identical summary either way. When opts.num_shards > 1 the log
/// is compressed shard-wise (one pipeline per shard, merged and
/// reconciled back to num_clusters; see core/sharded.h — mergeable
/// encoders only) with bit-deterministic results for any thread count
/// and shard order.
LogRSummary Compress(const LogView& log, const LogROptions& opts);

/// Adaptive top-down refinement: starting from one cluster, repeatedly
/// bisect (configured method, k = 2) the component contributing the most
/// weighted Reproduction Error, until `num_clusters` components exist or
/// all components are error-free. This realizes the paper's Appendix-E
/// observation that messy clusters "need further sub-clustering", spends
/// the cluster budget where the Error lives, and yields monotone
/// refinements like hierarchical cuts while keeping k-means locality.
LogRSummary CompressAdaptive(const LogView& log, std::size_t num_clusters,
                             const LogROptions& opts);

}  // namespace logr

#endif  // LOGR_CORE_LOGR_COMPRESSOR_H_
