// Persistence for LogR summaries.
//
// A compressed log is only useful if it can replace the log on disk: the
// text format below stores the feature codebook once plus each cluster's
// (weight, |L_i|, sparse marginals) — the entire content of a naive
// mixture encoding — and, since v2, which encoder produced the summary
// plus that encoder's extras (the refined encoder's per-cluster
// patterns and refined Error). Loading reconstructs a WorkloadModel
// that answers every statistic query identically. v1 files (no encoder
// tag) still load and are treated as "naive".
//
// Format (line-oriented, "#"-comments ignored):
//   logr-summary v2
//   encoder <name>                  (v2 only; v1 implies "naive")
//   features <count>
//   f <clause> <text...>            (one per feature, id = line order)
//   clusters <count>
//   cluster <weight> <log_size> <empirical_entropy> <n_marginals>
//   m <feature_id> <marginal>       (n_marginals lines)
//   ... then, for "refined" summaries only:
//   patterns <cluster> <count> <refined_component_error>
//   p <n_ids> <id...>               (count lines per patterns block)
//   refined_error <value>           (informational; the loaded model
//                                    recomputes the weighted sum)
//
// The naive mixture family ("naive", "refined" — any model whose
// AsNaiveMixture() is non-null) serializes as above. A runtime-
// registered mergeable encoder persists as its naive payload under the
// "naive" tag, so its files always load.
//
// "pattern" models (Sec. 2.3.1 — per-component max-ent lattices) have
// no naive payload; they persist as summary v3, which stores each
// component's patterns with the marginals that were measured on the
// log, plus the stored empirical entropy / log size / universe width:
//   logr-summary v3
//   encoder pattern
//   features <count>
//   f <clause> <text...>
//   clusters <count>
//   pcluster <weight> <log_size> <empirical_entropy> <n_features>
//            <n_patterns>
//   pm <marginal> <n_ids> <id...>   (n_patterns lines per pcluster)
// Loading refits each component's max-ent representative by iterative
// scaling over exactly the stored (patterns, marginals, n_features) —
// a deterministic fit, so a disk round trip reproduces every estimate
// of the in-memory model bit for bit without the original log.
#ifndef LOGR_CORE_SERIALIZATION_H_
#define LOGR_CORE_SERIALIZATION_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/mixture.h"
#include "util/thread_pool.h"
#include "workload/query_log.h"

namespace logr {

/// A loaded summary: the codebook, the naive-family payload, and the
/// analytics facade built over it. The original log is not needed to
/// answer statistic queries — consumers go through `model`.
struct PersistedSummary {
  Vocabulary vocabulary;
  /// Encoder tag ("naive" for v1 files).
  std::string encoder = "naive";
  /// The naive mixture payload (what the merge machinery operates on).
  /// Empty for "pattern" summaries, which have no naive payload — the
  /// merge machinery rejects them up front via Encoder::Mergeable().
  NaiveMixtureEncoding encoding;
  /// The analytics facade over the payload; never null after a
  /// successful ReadSummary.
  std::shared_ptr<const WorkloadModel> model;
};

/// Writes `model` (with `vocab` as its codebook) to `out`: summary v2
/// for the naive mixture family, summary v3 for "pattern" models.
/// Returns false (and fills `error`) for models that are neither — a
/// runtime-registered encoder whose model exposes no serializable
/// payload.
bool WriteSummary(const Vocabulary& vocab, const WorkloadModel& model,
                  std::ostream* out, std::string* error);

/// Naive-mixture convenience overload (always serializable).
void WriteSummary(const Vocabulary& vocab,
                  const NaiveMixtureEncoding& encoding, std::ostream* out);

/// Parses a summary written by WriteSummary (v2/v3) or by the
/// pre-encoder v1 writer. Returns false (and fills `error`) on
/// malformed input.
bool ReadSummary(std::istream* in, PersistedSummary* summary,
                 std::string* error);

/// Convenience file wrappers. Writes are atomic: the summary is
/// written to a same-directory temporary file and renamed over `path`
/// (the discipline the distributed spool has always used), so a
/// concurrent reader — the serve daemon's directory watch, a CI `cmp`
/// leg — can never observe a torn summary, and a crashed writer never
/// leaves a valid-looking partial behind.
bool WriteSummaryFile(const std::string& path, const Vocabulary& vocab,
                      const WorkloadModel& model, std::string* error);
bool WriteSummaryFile(const std::string& path, const Vocabulary& vocab,
                      const NaiveMixtureEncoding& encoding,
                      std::string* error);
bool ReadSummaryFile(const std::string& path, PersistedSummary* summary,
                     std::string* error);

/// Merges loaded summaries (one per shard, day, or node) into one:
/// unions the codebooks, remaps feature ids, pools the components
/// (NaiveMixtureEncoding::Merge, exact for summaries of disjoint query
/// populations), and — when `max_components` > 0 and the pooled count
/// exceeds it — reconciles down with NaiveMixtureEncoding::Reconcile
/// (backend-free; runs across `pool`, nullptr = serial, with the same
/// bits for any pool). `max_components` == 0 keeps every pooled
/// component. Returns false (and fills `error`) on empty input, an
/// unknown encoder tag, or a part whose encoder is not mergeable
/// ("pattern" summaries cannot be pooled). Refined parts merge through
/// their naive payload; the output is always tagged "naive" because
/// patterns are log-dependent and cannot be re-ranked offline.
/// Component order in the result is canonical, so the merge is
/// independent of the order of `parts`.
bool MergeSummaries(const std::vector<PersistedSummary>& parts,
                    std::size_t max_components, ThreadPool* pool,
                    PersistedSummary* out, std::string* error);

}  // namespace logr

#endif  // LOGR_CORE_SERIALIZATION_H_
