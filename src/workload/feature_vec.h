// Sparse binary feature vectors (paper Section 2.1's patterns / queries).
//
// Queries touch ~15 of up to several thousand features, so both query
// vectors and patterns are stored as sorted id lists. Containment, union,
// intersection and distance kernels all run on the sorted-sparse form.
#ifndef LOGR_WORKLOAD_FEATURE_VEC_H_
#define LOGR_WORKLOAD_FEATURE_VEC_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "workload/feature.h"

namespace logr {

/// A sorted, duplicate-free list of feature ids: the sparse form of the
/// paper's 0/1 vectors. Used for both queries q and patterns b.
struct FeatureVec {
  std::vector<FeatureId> ids;

  FeatureVec() = default;
  explicit FeatureVec(std::vector<FeatureId> raw_ids);

  std::size_t size() const { return ids.size(); }
  bool empty() const { return ids.empty(); }

  bool operator==(const FeatureVec& o) const { return ids == o.ids; }
  bool operator<(const FeatureVec& o) const { return ids < o.ids; }

  /// True iff this vector has feature `f` set.
  bool Contains(FeatureId f) const;

  /// True iff `pattern` is contained in this vector (b' ⊆ b, Sec. 2.1).
  bool ContainsAll(const FeatureVec& pattern) const;

  /// Number of ids shared with `o`.
  std::size_t IntersectionSize(const FeatureVec& o) const;

  /// Set union.
  static FeatureVec Union(const FeatureVec& a, const FeatureVec& b);

  /// Hash key (the ids memcpy'd into a string) for hash-map indexing.
  std::string HashKey() const;
};

/// True iff the sorted id span [ids, ids + size) contains every id of
/// `pattern` (b ⊆ q, Sec. 2.1). The one containment test: FeatureVec,
/// heap logs and mmap'd columns all call it.
inline bool ContainsAll(const FeatureId* ids, std::size_t size,
                        const FeatureVec& pattern) {
  return std::includes(ids, ids + size, pattern.ids.begin(),
                       pattern.ids.end());
}

/// A set of FeatureVecs bit-packed once into dense u64 blocks, so pairwise
/// symmetric-difference counts become XOR + popcount over words instead of
/// a sorted-vector merge. The count is an exact integer either way, so
/// every distance metric derived from it is bit-identical to the sparse
/// merge kernel.
///
/// Row i occupies words_per_vec() consecutive u64s; bit f of the row is 1
/// iff vecs[i] contains feature f. Because query vectors touch ~15 of up
/// to thousands of features, most words of a row are zero — so each row
/// also carries its nonzero-word index list and its total popcount, and
/// the difference kernel only visits one row's nonzero words:
///
///   diff(i, j) = bits(j) + Σ_{w ∈ nzw(i)} [pc(d_i[w]^d_j[w]) - pc(d_j[w])]
///
/// (words outside nzw(i) contribute pc(d_j[w]) each, which the bits(j)
/// term pre-pays). Packing costs one pass over the ids; the pool is
/// immutable afterwards and safe to share across threads.
class PackedVecPool {
 public:
  PackedVecPool() = default;

  /// Packs `vecs` over an `n_features`-wide universe. Every id must be
  /// < n_features (checked in debug builds).
  /// Builds the row-major words and their word-major transposed copy
  /// with its popcount plane, which the tiled condensed fill sweeps.
  PackedVecPool(const std::vector<FeatureVec>& vecs, std::size_t n_features);

  /// Callback yielding row `i`'s sorted feature-id span: pointer plus
  /// length. The span may borrow from anywhere — heap vectors or an
  /// mmap'd column — which is how a LogView packs zero-copy.
  using IdSpanFn =
      std::function<std::pair<const FeatureId*, std::size_t>(std::size_t)>;

  /// Packs `count` rows served by `ids_of` over an `n_features`-wide
  /// universe — the span twin of the FeatureVec constructor; both build
  /// the identical pool for identical ids.
  PackedVecPool(std::size_t count, std::size_t n_features,
                const IdSpanFn& ids_of);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  std::size_t num_features() const { return n_features_; }
  std::size_t words_per_vec() const { return words_; }

  /// The packed words of row `i`.
  const std::uint64_t* Row(std::size_t i) const {
    return data_.data() + i * words_;
  }

  /// Number of set bits in row `i` (= the vector's size).
  std::size_t SetBits(std::size_t i) const { return bits_[i]; }

  /// The largest SetBits over all rows; diff counts never exceed twice
  /// this, which sizes the per-matrix metric lookup tables.
  std::size_t MaxSetBits() const { return max_bits_; }

  /// Row i's nonzero word indices (sorted ascending).
  const std::uint32_t* WordIndices(std::size_t i) const {
    return word_idx_.data() + word_off_[i];
  }
  std::size_t NumWordIndices(std::size_t i) const {
    return word_off_[i + 1] - word_off_[i];
  }

  /// Word `w` of every row, contiguous by row index (the transposed
  /// layout): Column(w)[i] == Row(i)[w]. Lets pairwise kernels sweep a
  /// fixed word across many rows with sequential loads.
  const std::uint64_t* Column(std::size_t w) const {
    return transposed_.data() + w * count_;
  }

  /// Per-row popcounts of word `w`: ColumnPopcount(w)[i] ==
  /// popcount(Row(i)[w]). Precomputed so column sweeps pay one popcount
  /// per visited word instead of two.
  const std::uint8_t* ColumnPopcount(std::size_t w) const {
    return pc8_.data() + w * count_;
  }

  /// Number of coordinates on which rows `i` and `j` differ — the same
  /// integer SymmetricDifference(vecs[i], vecs[j]) returns.
  std::size_t SymmetricDifference(std::size_t i, std::size_t j) const;

  /// Words of storage packing `count` vectors over `n_features` would
  /// take — callers bound memory before building a pool.
  static std::size_t StorageWords(std::size_t count, std::size_t n_features);

  /// Number of pools built process-wide (default-constructed empties
  /// excluded). Tests assert Compress builds exactly one; Compress
  /// reports the delta as LogRSummary::pool_builds.
  static std::uint64_t BuildCount();

 private:
  void Build(std::size_t count, std::size_t n_features, const IdSpanFn& ids_of);

  std::size_t count_ = 0;
  std::size_t words_ = 0;
  std::size_t n_features_ = 0;
  std::size_t max_bits_ = 0;
  std::vector<std::uint64_t> data_;
  std::vector<std::uint64_t> transposed_;  // word-major copy of data_
  std::vector<std::uint8_t> pc8_;          // popcount per (word, row)
  std::vector<std::uint32_t> bits_;
  std::vector<std::size_t> word_off_;   // CSR offsets, count_ + 1 entries
  std::vector<std::uint32_t> word_idx_; // sorted nonzero words per row
};

}  // namespace logr

#endif  // LOGR_WORKLOAD_FEATURE_VEC_H_
