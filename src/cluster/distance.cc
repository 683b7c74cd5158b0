#include "cluster/distance.h"

#include <algorithm>
#include <cmath>

#include "cluster/xor_popcount.h"
#include "util/check.h"
#include "util/string_util.h"

namespace logr {

namespace {

/// Upper bound on the packed pool's footprint (u64 words). 1 GiB: far
/// above any workload the repo ships, low enough that a degenerate
/// universe (millions of features x many vectors) falls back to the
/// merge kernel instead of allocating absurdly.
constexpr std::size_t kPackedBudgetWords = std::size_t{1} << 27;

/// Tile edge for the block-tiled pairwise schedule. 128x128 tiles are
/// big enough that per-tile dispatch overhead vanishes and small enough
/// that the upper triangle splits into many near-equal work units, so
/// the pool's dynamic claiming stays load-balanced (unlike row
/// parallelism, where row i carries count-i columns).
constexpr std::size_t kTile = 128;

}  // namespace

std::string DistanceSpec::Name() const {
  switch (metric) {
    case Metric::kEuclidean: return "euclidean";
    case Metric::kManhattan: return "manhattan";
    case Metric::kMinkowski: return StrFormat("minkowski(p=%.0f)", p);
    case Metric::kHamming: return "hamming";
    case Metric::kChebyshev: return "chebyshev";
    case Metric::kCanberra: return "canberra";
  }
  return "?";
}

std::size_t SymmetricDifference(const FeatureVec& a, const FeatureVec& b) {
  std::size_t inter = a.IntersectionSize(b);
  return a.size() + b.size() - 2 * inter;
}

double DistanceFromSymmetricDifference(std::size_t count, std::size_t n,
                                       const DistanceSpec& spec) {
  double diff = static_cast<double>(count);
  switch (spec.metric) {
    case Metric::kEuclidean:
      return std::sqrt(diff);
    case Metric::kManhattan:
      return diff;
    case Metric::kMinkowski:
      LOGR_DCHECK(spec.p >= 1.0);
      return std::pow(diff, 1.0 / spec.p);
    case Metric::kHamming:
      // count(x != y) / (count(x != y) + count(x == y)) over all n
      // coordinates — the paper's normalized Hamming distance.
      LOGR_CHECK(n > 0);
      return diff / static_cast<double>(n);
    case Metric::kChebyshev:
      // Max per-coordinate difference of 0/1 vectors: 0 or 1.
      return diff > 0.0 ? 1.0 : 0.0;
    case Metric::kCanberra:
      // Per-coordinate |x-y|/(|x|+|y|) is 1 where the vectors differ and
      // 0 elsewhere (0/0 := 0), so Canberra equals the unnormalized
      // Hamming count on binary data.
      return diff;
  }
  return 0.0;
}

double Distance(const FeatureVec& a, const FeatureVec& b, std::size_t n,
                const DistanceSpec& spec) {
  return DistanceFromSymmetricDifference(SymmetricDifference(a, b), n, spec);
}

bool PackedPoolFits(std::size_t count, std::size_t n,
                    bool with_columns) {
  return PackedVecPool::StorageWords(count, n, with_columns) <=
         kPackedBudgetWords;
}

Matrix DistanceMatrix(const std::vector<FeatureVec>& vecs, std::size_t n,
                      const DistanceSpec& spec) {
  return DistanceMatrix(vecs, n, spec, ThreadPool::Shared());
}

Matrix DistanceMatrix(const std::vector<FeatureVec>& vecs, std::size_t n,
                      const DistanceSpec& spec, ThreadPool* pool) {
  if (!PackedPoolFits(vecs.size(), n)) {
    return DistanceMatrixMerge(vecs, n, spec, pool);
  }
  PackedVecPool packed(vecs, n);
  return DistanceMatrix(packed, spec, pool);
}

namespace {

/// The tiled pairwise sweep behind both distance layouts. Writes every
/// upper-triangle entry (i, j), j > i, exactly once, through
/// `upper_row(i, j)` — a pointer to (i, j) whose row continues
/// contiguously over larger j. With `mirror` set, the (j, i) entries
/// are also staged per tile and flushed into it row-wise.
template <typename UpperRowFn>
void SweepUpperTriangle(const PackedVecPool& packed, const DistanceSpec& spec,
                        ThreadPool* pool, const UpperRowFn& upper_row,
                        Matrix* mirror) {
  const std::size_t count = packed.size();
  const std::size_t n = packed.num_features();
  if (count < 2) return;
  // The tiled kernel sweeps the transposed column planes.
  LOGR_CHECK(packed.has_columns());

  // A diff count never exceeds bits(i) + bits(j), so the metric mapping
  // collapses to a table lookup — entries computed by the very function
  // the merge kernel calls per pair, so the values stay bit-identical
  // while the per-pair sqrt/pow/divide vanishes.
  std::vector<double> lut(2 * packed.MaxSetBits() + 1);
  for (std::size_t c = 0; c < lut.size(); ++c) {
    lut[c] = DistanceFromSymmetricDifference(c, n, spec);
  }

  // Balanced block-tiled schedule over the upper triangle: every tile is
  // (at most) kTile x kTile entries of comparable cost, so dynamic block
  // claiming never strands a worker on one long row. Each (i, j) entry
  // and its mirror are written by exactly one tile, so any schedule
  // produces the same output.
  const std::size_t num_tiles = (count + kTile - 1) / kTile;
  std::vector<std::pair<std::size_t, std::size_t>> tiles;
  tiles.reserve(num_tiles * (num_tiles + 1) / 2);
  for (std::size_t bi = 0; bi < num_tiles; ++bi) {
    for (std::size_t bj = bi; bj < num_tiles; ++bj) {
      tiles.emplace_back(bi, bj);
    }
  }
  ParallelFor(pool, 0, tiles.size(), kFineGrain, [&](std::size_t t) {
    const std::size_t i_lo = tiles[t].first * kTile;
    const std::size_t i_hi = std::min(count, i_lo + kTile);
    const std::size_t j_lo = tiles[t].second * kTile;
    const std::size_t j_hi = std::min(count, j_lo + kTile);
    std::int32_t acc[kTile];
    // The mirror entries d(j, i) of this tile, staged transposed
    // ([j - j_lo][i - i_lo]) in a cache-resident buffer. Writing them
    // straight into d would stride by a full matrix row per j — one
    // cache-line miss per entry, which profiling shows costs more than
    // the popcount sweep itself. Staged here and flushed row-wise
    // below, both matrix write streams are sequential.
    std::vector<double> staged(mirror != nullptr ? kTile * kTile : 0);
    for (std::size_t i = i_lo; i < i_hi; ++i) {
      // Row i's nonzero words drive the whole tile row (~|q| visited
      // words per pair regardless of universe width), and one kernel
      // call sweeps all of them over the j slice of the transposed
      // columns — sequential loads, one precomputed popcount per word:
      //   diff(i, j) = bits(j) + Σ_w [pc(row_i[w]^col_w[j]) - pc(col_w[j])]
      const std::size_t j_beg = std::max(i + 1, j_lo);
      if (j_beg >= j_hi) continue;
      for (std::size_t j = j_beg; j < j_hi; ++j) {
        acc[j - j_beg] = static_cast<std::int32_t>(packed.SetBits(j));
      }
      XorPopcountAccum(packed.Row(i), packed.WordIndices(i),
                       packed.NumWordIndices(i), packed.Column(0) + j_beg,
                       packed.ColumnPopcount(0) + j_beg, count, acc,
                       j_hi - j_beg);
      double* drow = upper_row(i, j_beg);
      for (std::size_t j = j_beg; j < j_hi; ++j) {
        drow[j - j_beg] = lut[static_cast<std::size_t>(acc[j - j_beg])];
      }
      if (mirror == nullptr) continue;
      double* mcol = staged.data() + (j_beg - j_lo) * kTile + (i - i_lo);
      for (std::size_t j = j_beg; j < j_hi; ++j) {
        mcol[(j - j_beg) * kTile] = drow[j - j_beg];
      }
    }
    if (mirror == nullptr) return;
    // Flush the staged mirror block: for each j, its valid i range is
    // [i_lo, min(j, i_hi)) — the whole tile edge off the diagonal, a
    // shrinking prefix on it.
    for (std::size_t j = j_lo; j < j_hi; ++j) {
      const std::size_t i_end = std::min(j, i_hi);
      if (i_end <= i_lo) continue;
      const double* src = staged.data() + (j - j_lo) * kTile;
      double* dst = &(*mirror)(j, i_lo);
      for (std::size_t o = 0; o < i_end - i_lo; ++o) dst[o] = src[o];
    }
  });
}

}  // namespace

Matrix DistanceMatrix(const PackedVecPool& packed, const DistanceSpec& spec,
                      ThreadPool* pool) {
  Matrix d(packed.size(), packed.size());
  SweepUpperTriangle(
      packed, spec, pool,
      [&d](std::size_t i, std::size_t j) { return &d(i, j); }, &d);
  return d;
}

CondensedDistances::CondensedDistances(std::size_t n)
    : n_(n), data_(new double[Entries(n)]) {}

CondensedDistances::CondensedDistances(const Matrix& full)
    : CondensedDistances(full.rows()) {
  LOGR_CHECK(full.cols() == n_);
  for (std::size_t i = 0; i + 1 < n_; ++i) {
    std::copy(full.Row(i) + i + 1, full.Row(i) + n_, Row(i));
  }
}

CondensedDistances CondensedDistanceMatrix(const PackedVecPool& packed,
                                           const DistanceSpec& spec,
                                           ThreadPool* pool) {
  CondensedDistances d(packed.size());
  SweepUpperTriangle(
      packed, spec, pool,
      [&d](std::size_t i, std::size_t j) { return d.Row(i) + (j - i - 1); },
      /*mirror=*/nullptr);
  return d;
}

CondensedDistances CondensedDistanceMatrix(
    const std::vector<FeatureVec>& vecs, std::size_t n,
    const DistanceSpec& spec, ThreadPool* pool) {
  if (!PackedPoolFits(vecs.size(), n)) {
    return CondensedDistances(DistanceMatrixMerge(vecs, n, spec, pool));
  }
  PackedVecPool packed(vecs, n);
  return CondensedDistanceMatrix(packed, spec, pool);
}

Matrix DistanceMatrixMerge(const std::vector<FeatureVec>& vecs,
                           std::size_t n, const DistanceSpec& spec,
                           ThreadPool* pool) {
  const std::size_t count = vecs.size();
  Matrix d(count, count);
  // Row-parallel over the upper triangle; rows write disjoint entries
  // ((i, j) and its mirror (j, i) with j > i), so any schedule produces
  // the same matrix.
  ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
    for (std::size_t j = i + 1; j < count; ++j) {
      double v = Distance(vecs[i], vecs[j], n, spec);
      d(i, j) = v;
      d(j, i) = v;
    }
  });
  return d;
}

std::vector<double> DistancePairs(
    const PackedVecPool& packed,
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    const DistanceSpec& spec, ThreadPool* pool) {
  std::vector<double> out(pairs.size());
  ParallelFor(pool, 0, pairs.size(), kFineGrain, [&](std::size_t p) {
    out[p] = DistanceFromSymmetricDifference(
        packed.SymmetricDifference(pairs[p].first, pairs[p].second),
        packed.num_features(), spec);
  });
  return out;
}

}  // namespace logr
