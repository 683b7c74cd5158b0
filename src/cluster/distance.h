// Distance measures over binary sparse feature vectors (paper Sec. 6.1).
//
// The paper evaluates KMeans with Euclidean distance and Spectral
// clustering with Manhattan, Minkowski (p=4) and Hamming distances. On
// 0/1 vectors every one of these is a function of the
// symmetric-difference count, which both kernels exploit:
//
//  - the sparse merge kernel walks two sorted id lists
//    (SymmetricDifference over FeatureVecs — the reference path), and
//  - the packed kernel XOR+popcounts dense u64 blocks (PackedVecPool),
//    which is what CondensedDistanceMatrix runs on.
//
// Both produce the same exact integer, so every derived metric is
// bit-identical between them.
//
// Pairwise results have one layout: the strict upper triangle in a
// CondensedDistances store (N(N−1)/2·8 bytes). Both consumers work on
// it in place: spectral clustering turns it into Gaussian affinities and
// multiplies by it; hierarchical agglomeration merges its rows.
#ifndef LOGR_CLUSTER_DISTANCE_H_
#define LOGR_CLUSTER_DISTANCE_H_

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "util/thread_pool.h"
#include "workload/feature_vec.h"

namespace logr {

enum class Metric {
  kEuclidean,
  kManhattan,
  kMinkowski,  // l_p, parameterized by DistanceSpec::p
  kHamming,    // count(x != y) / n  (paper's normalized form)
};

struct DistanceSpec {
  Metric metric = Metric::kEuclidean;
  double p = 4.0;  // Minkowski order (paper uses p = 4)
};

/// Number of coordinates on which `a` and `b` differ (sparse merge
/// kernel — the packed pool computes the identical integer).
std::size_t SymmetricDifference(const FeatureVec& a, const FeatureVec& b);

/// Distance between two binary sparse vectors in an `n`-feature universe.
double Distance(const FeatureVec& a, const FeatureVec& b, std::size_t n,
                const DistanceSpec& spec);

/// Symmetric pairwise distances with a zero diagonal, stored as the
/// strict upper triangle: N(N−1)/2 doubles (N(N−1)/2·8 bytes, half an
/// N x N matrix). Row i holds the entries (i, j) for j > i contiguously;
/// at(i, j) serves either orientation. Move-only, so a store handed to
/// an in-place consumer is never copied by accident.
class CondensedDistances {
 public:
  CondensedDistances() = default;

  /// An `n`-point store whose entries are left uninitialized: the
  /// caller writes every one (CondensedDistanceMatrix does, each exactly
  /// once, so the first touch of each page happens in the worker that
  /// fills it rather than in a serial zero-fill).
  explicit CondensedDistances(std::size_t n);

  /// Number of points N.
  std::size_t size() const { return n_; }

  /// Storage footprint: N(N−1)/2·8 bytes.
  std::size_t bytes() const { return Entries(n_) * sizeof(double); }

  /// Row i of the upper triangle: Row(i)[j - i - 1] is (i, j), j > i.
  double* Row(std::size_t i) { return data_.get() + Index(i, i + 1); }
  const double* Row(std::size_t i) const {
    return data_.get() + Index(i, i + 1);
  }

  /// Entry (i, j) for any i != j: the row of min(i, j), at max(i, j).
  double& at(std::size_t i, std::size_t j) {
    return data_[i < j ? Index(i, j) : Index(j, i)];
  }
  double at(std::size_t i, std::size_t j) const {
    return data_[i < j ? Index(i, j) : Index(j, i)];
  }

 private:
  static std::size_t Entries(std::size_t n) {
    return n < 2 ? 0 : n * (n - 1) / 2;
  }

  /// Flat offset of (i, j), i < j: rows 0..i-1 hold
  /// i(2N - i - 1)/2 entries, and (i, j) sits j - i - 1 into row i.
  std::size_t Index(std::size_t i, std::size_t j) const {
    return i * (2 * n_ - i - 1) / 2 + (j - i - 1);
  }

  std::size_t n_ = 0;
  std::unique_ptr<double[]> data_;
};

/// The condensed pairwise store over an already-packed pool, computed
/// across `pool` (nullptr runs serially). Schedules balanced
/// upper-triangle tiles of XOR+popcount sweeps over the pool's column
/// planes and maps each count through a per-call lookup table; every
/// entry is written exactly once, so the store is bit-identical to
/// DistanceMatrixMerge for any pool.
CondensedDistances CondensedDistanceMatrix(const PackedVecPool& packed,
                                           const DistanceSpec& spec,
                                           ThreadPool* pool);

/// As above from raw vectors: packs locally when PackedPoolFits, and
/// otherwise runs DistanceMatrixMerge.
CondensedDistances CondensedDistanceMatrix(
    const std::vector<FeatureVec>& vecs, std::size_t n,
    const DistanceSpec& spec, ThreadPool* pool);

/// Merge-kernel store (row-parallel upper triangle). The only path for
/// universes too wide to pack, and the bit-identity baseline for tests
/// and benches.
CondensedDistances DistanceMatrixMerge(const std::vector<FeatureVec>& vecs,
                                       std::size_t n, const DistanceSpec& spec,
                                       ThreadPool* pool);

/// True when packing `count` vectors over `n` features fits the packed
/// kernel's memory budget; CondensedDistanceMatrix consults this and
/// callers embedding a PackedVecPool of their own should too.
bool PackedPoolFits(std::size_t count, std::size_t n);

}  // namespace logr

#endif  // LOGR_CLUSTER_DISTANCE_H_
