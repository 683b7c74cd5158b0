// Persistence for LogR summaries.
//
// A compressed log is only useful if it can replace the log on disk. A
// summary stores the feature codebook once plus each cluster's
// (weight, |L_i|, H(rho*), sparse marginals) — the entire content of a
// naive mixture encoding — together with the encoder that produced it
// and that encoder's extras: the refined encoder's per-cluster patterns
// and refined Errors, or the pattern encoder's per-component patterns
// with their measured marginals. Loading reconstructs a WorkloadModel
// that answers every statistic query bit-identically.
//
// Summary v4 is the only format, written and read. It is binary;
// fixed-width values are little-endian, "varint" is unsigned LEB128
// (util/bytes.h):
//
//   header (32 bytes):
//     off  0  magic     8 bytes  "logrsumm"
//     off  8  version   u32      4
//     off 12  flags     u32      0 (reserved; nonzero rejected)
//     off 16  file_size u64      total bytes (rejects truncation)
//     off 24  checksum  u64      FNV-1a 64 (BinaryLogChecksum) over
//                                the payload [32, file_size)
//   payload:
//     u8 encoder                 0 naive, 1 refined, 2 pattern
//     codebook:
//       varint n_tokens, then per token: varint length, bytes
//       varint n_features, then per feature (id = order):
//         u8 clause, varint n_refs, n_refs x varint token id
//     components (naive, refined):
//       varint n_components, then per component:
//         f64 weight, varint log_size, f64 empirical_entropy,
//         varint n_marginals, n_marginals x marginal entry
//     components (pattern):
//       varint n_components, then per component:
//         f64 weight, varint log_size, f64 empirical_entropy,
//         varint n_features (the fit's universe width), varint n_patterns,
//         n_patterns x { pattern-marginal entry, n_ids x varint id gap }
//     patterns (refined only), per component:
//       varint n_patterns; when nonzero: f64 refined component Error,
//       then per pattern: varint n_ids, n_ids x varint id gap
//
// The codebook is a token dictionary: each feature text is split
// losslessly into maximal runs of word bytes [A-Za-z0-9_], whitespace,
// and other bytes; each distinct run is stored once, most frequent
// first (first occurrence breaks ties), so equal models write equal
// bytes. Any byte, "\n" included, round-trips. Feature ids are never
// remapped.
//
// Ids within a list ascend strictly and are stored as gaps: each id
// minus (previous id + 1), the first id as itself. A marginal entry is
// varint (gap << 1 | raw), then the marginal; a pattern-marginal entry
// is varint (n_ids << 1 | raw), then the marginal. raw = 0 stores a
// varint count c, used when double(c) / double(log_size) reproduces the
// marginal bit for bit; raw = 1 stores the f64 itself.
//
// The reader loads the whole file, checks magic, version, size and
// checksum, and bounds every count by the bytes that remain before it
// allocates; reconstructed codebook text is capped at 64 bytes per file
// byte (16 MiB for small files). The line-oriented text summaries that
// earlier writers produced (v1-v3) are refused: re-run
// `logr_cli compress` on the log to get a v4 file.
//
// The naive mixture family ("naive", "refined" — any model whose
// AsNaiveMixture() is non-null) persists its naive payload; any
// naive-backed model that is not "refined" is written under the "naive"
// tag, so its files always load. A "pattern" model has no naive payload. Loading
// refits each of its components' max-ent representative by iterative
// scaling over exactly the stored (patterns, marginals, n_features) —
// a deterministic fit, so a disk round trip reproduces every estimate
// of the in-memory model bit for bit without the original log.
#ifndef LOGR_CORE_SERIALIZATION_H_
#define LOGR_CORE_SERIALIZATION_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/encoder.h"
#include "core/mixture.h"
#include "util/thread_pool.h"
#include "workload/query_log.h"

namespace logr {

inline constexpr char kSummaryMagic[8] = {'l', 'o', 'g', 'r',
                                          's', 'u', 'm', 'm'};
inline constexpr std::uint32_t kSummaryVersion = 4;
inline constexpr std::size_t kSummaryHeaderSize = 32;
/// Byte offset of the u64 payload checksum within the header.
inline constexpr std::size_t kSummaryChecksumOffset = 24;

/// Where a loaded summary's bytes went (`logr_cli info` prints it).
struct SummarySize {
  std::size_t total = 0;
  /// Sections; the rest of `total` is the 32-byte header and the
  /// encoder byte.
  std::size_t codebook = 0;    // token dictionary + features
  std::size_t components = 0;  // component headers + naive marginals
  std::size_t patterns = 0;    // refined patterns, or pattern entries
};

/// A loaded summary: the codebook and the analytics facade over the
/// payload. The original log is not needed to answer statistic queries
/// — consumers go through `model`. The encoder tag is
/// model->EncoderName(); the naive payload the merge machinery
/// operates on is model->AsNaiveMixture() (null for "pattern").
struct PersistedSummary {
  Vocabulary vocabulary;
  /// Never null after a successful ReadSummary.
  std::shared_ptr<const WorkloadModel> model;
  /// Filled by ReadSummary.
  SummarySize size;
};

/// Writes `model` (with `vocab` as its codebook) to `out` as summary
/// v4. Returns false (and fills `error`) for a model that exposes
/// neither a naive-mixture nor a pattern payload.
bool WriteSummary(const Vocabulary& vocab, const WorkloadModel& model,
                  std::ostream* out, std::string* error);

/// Parses a summary v4 written by WriteSummary, reading `in` to its end.
/// Returns false (and fills `error`) on malformed input; input without
/// the v4 magic, such as a v1-v3 text summary or a binary query log
/// (.logrl), fails with an error that says to run `logr_cli compress`
/// on the log.
bool ReadSummary(std::istream* in, PersistedSummary* summary,
                 std::string* error);

/// File wrappers over util/file_io.h. Writes are atomic: the summary is
/// written to a same-directory temporary file and renamed over `path`
/// (WriteFileAtomically, which .logrl writes share), so a concurrent reader — the
/// serve daemon's directory watch, a CI `cmp` leg — can never observe a
/// torn summary, and a crashed writer never leaves a valid-looking
/// partial behind.
bool WriteSummaryFile(const std::string& path, const Vocabulary& vocab,
                      const WorkloadModel& model, std::string* error);
bool ReadSummaryFile(const std::string& path, PersistedSummary* summary,
                     std::string* error);

/// Merges loaded summaries (one per shard, day, or node) into one:
/// unions the codebooks, remaps feature ids, pools the components
/// (NaiveMixtureEncoding::Merge, exact for summaries of disjoint query
/// populations), and — when `max_components` > 0 and the pooled count
/// exceeds it — reconciles down with NaiveMixtureEncoding::Reconcile
/// (the same whatever clustering method fitted the parts; runs across
/// `pool`, nullptr = serial, with the same bits for any pool). `max_components` == 0 keeps every pooled
/// component. Returns false (and fills `error`) on empty input or a
/// part without a naive payload ("pattern" summaries cannot be
/// pooled). Refined parts merge through
/// their naive payload; the output is always tagged "naive" because
/// patterns are log-dependent and cannot be re-ranked offline.
/// Component order in the result is canonical, so the merge is
/// independent of the order of `parts`.
bool MergeSummaries(const std::vector<PersistedSummary>& parts,
                    std::size_t max_components, ThreadPool* pool,
                    PersistedSummary* out, std::string* error);

}  // namespace logr

#endif  // LOGR_CORE_SERIALIZATION_H_
