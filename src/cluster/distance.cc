#include "cluster/distance.h"

#include <algorithm>
#include <cmath>

#include "cluster/xor_popcount.h"
#include "util/check.h"

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

/// Maps an exact symmetric-difference count to the metric value. Shared
/// by the merge and packed kernels, so the two are bit-identical by
/// construction.
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
  }
  return 0.0;
}

}  // namespace

std::size_t SymmetricDifference(const FeatureVec& a, const FeatureVec& b) {
  std::size_t inter = a.IntersectionSize(b);
  return a.size() + b.size() - 2 * inter;
}

double Distance(const FeatureVec& a, const FeatureVec& b, std::size_t n,
                const DistanceSpec& spec) {
  return DistanceFromSymmetricDifference(SymmetricDifference(a, b), n, spec);
}

bool PackedPoolFits(std::size_t count, std::size_t n) {
  return PackedVecPool::StorageWords(count, n) <= kPackedBudgetWords;
}

CondensedDistances::CondensedDistances(std::size_t n)
    : n_(n), data_(new double[Entries(n)]) {}

CondensedDistances CondensedDistanceMatrix(const PackedVecPool& packed,
                                           const DistanceSpec& spec,
                                           ThreadPool* pool) {
  const std::size_t count = packed.size();
  const std::size_t n = packed.num_features();
  CondensedDistances d(count);
  if (count < 2) return d;

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
  // is written by exactly one tile, so any schedule produces the same
  // output.
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
      double* drow = d.Row(i) + (j_beg - i - 1);
      for (std::size_t j = j_beg; j < j_hi; ++j) {
        drow[j - j_beg] = lut[static_cast<std::size_t>(acc[j - j_beg])];
      }
    }
  });
  return d;
}

CondensedDistances CondensedDistanceMatrix(
    const std::vector<FeatureVec>& vecs, std::size_t n,
    const DistanceSpec& spec, ThreadPool* pool) {
  if (!PackedPoolFits(vecs.size(), n)) {
    return DistanceMatrixMerge(vecs, n, spec, pool);
  }
  PackedVecPool packed(vecs, n);
  return CondensedDistanceMatrix(packed, spec, pool);
}

CondensedDistances DistanceMatrixMerge(const std::vector<FeatureVec>& vecs,
                                       std::size_t n, const DistanceSpec& spec,
                                       ThreadPool* pool) {
  const std::size_t count = vecs.size();
  CondensedDistances d(count);
  // Row-parallel over the upper triangle; rows write disjoint entries,
  // so any schedule produces the same store.
  ParallelFor(pool, 0, count, kFineGrain, [&](std::size_t i) {
    double* row = d.Row(i);
    for (std::size_t j = i + 1; j < count; ++j) {
      row[j - i - 1] = Distance(vecs[i], vecs[j], n, spec);
    }
  });
  return d;
}

}  // namespace logr
