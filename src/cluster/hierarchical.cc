#include "cluster/hierarchical.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "cluster/nn_chain.h"
#include "util/check.h"

namespace logr {

namespace {

/// Union-find over leaf ids.
class DisjointSets {
 public:
  explicit DisjointSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  bool Union(int a, int b) {
    int ra = Find(a), rb = Find(b);
    if (ra == rb) return false;
    parent_[ra] = rb;
    return true;
  }

 private:
  std::vector<int> parent_;
};

/// Leaf masses for the weighted average linkage.
std::vector<double> ResolveMasses(std::size_t n,
                                  const std::vector<double>& weights) {
  std::vector<double> mass(n, 1.0);
  if (!weights.empty()) {
    LOGR_CHECK(weights.size() == n);
    for (std::size_t i = 0; i < n; ++i) {
      mass[i] = weights[i] > 0.0 ? weights[i] : 1e-12;
    }
  }
  return mass;
}

/// Chunk edge of the nearest() scans and merge passes: the unit the
/// scan team claims, and the unit of the serial chunk-order fold.
constexpr std::size_t kScanChunk = 64;

/// How many slot-list positions ahead the column walk prefetches. Each
/// column entry sits on its own cache line, so the walk would otherwise
/// stall on every read.
constexpr std::size_t kPrefetch = 32;

/// One scan chunk over slot `a`'s distances: positions [lo, hi) of the
/// exact ascending slot list `list`, where position `split` holds `a`.
/// The column part (j < a) reads the strided entries (j, a) and calls
/// `prefetch(j')` for the slot kPrefetch positions ahead, up to `split`;
/// the row part (j > a) then walks Row(a) contiguously. `visit(j, e)`
/// gets the stored entry e = (a, j) and returns the linkage to fold.
/// Returns the chunk's top two (empty when it holds no slot but `a`).
template <typename PrefetchFn, typename VisitFn>
NearestTwo WalkChunk(CondensedDistances& d, const std::uint32_t* list,
                     std::size_t a, std::size_t split, std::size_t lo,
                     std::size_t hi, const PrefetchFn& prefetch,
                     const VisitFn& visit) {
  NearestTwo top;
  const std::size_t column_end = std::min(hi, split);
  for (std::size_t p = lo; p < column_end; ++p) {
    if (p + kPrefetch < split) prefetch(list[p + kPrefetch]);
    const std::size_t j = list[p];
    top.Push(visit(j, d.Row(j)[a - j - 1]), j);
  }
  double* row = d.Row(a);
  for (std::size_t p = std::max(lo, split + 1); p < hi; ++p) {
    const std::size_t j = list[p];
    top.Push(visit(j, row[j - a - 1]), j);
  }
  return top;
}

/// Lexicographic (linkage, slot) order of the top-two cache.
bool Before(double x, std::size_t i, double y, std::size_t j) {
  return x < y || (x == y && i < j);
}

/// Position of active slot `a` in the ascending slot list.
std::size_t SlotPosition(const std::vector<std::uint32_t>& slots,
                         std::size_t a) {
  const auto it = std::lower_bound(slots.begin(), slots.end(), a);
  LOGR_DCHECK(it != slots.end() && *it == a);
  return static_cast<std::size_t>(it - slots.begin());
}

}  // namespace

std::vector<int> Dendrogram::CutToK(std::size_t k) const {
  LOGR_CHECK(k >= 1);
  const std::size_t n = num_leaves;
  k = std::min(k, n);

  // Node -> representative leaf: a merge's subtree is represented by the
  // representative of its first argument, resolved transitively.
  std::vector<int> rep(n + merge_a.size());
  for (std::size_t i = 0; i < n; ++i) rep[i] = static_cast<int>(i);
  for (std::size_t i = 0; i < merge_a.size(); ++i) {
    rep[n + i] = rep[merge_a[i]];
  }

  // Apply merges in ascending height order until K components remain.
  std::vector<std::size_t> order(merge_a.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a,
                                                   std::size_t b) {
    return height[a] < height[b];
  });
  DisjointSets sets(n);
  std::size_t components = n;
  for (std::size_t idx : order) {
    if (components <= k) break;
    if (sets.Union(rep[merge_a[idx]], rep[merge_b[idx]])) --components;
  }

  // Densify component labels.
  std::vector<int> label(n, -1);
  std::vector<int> assignment(n);
  int next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    int root = sets.Find(static_cast<int>(i));
    if (label[root] < 0) label[root] = next++;
    assignment[i] = label[root];
  }
  return assignment;
}

Dendrogram AgglomerativeAverageLinkage(CondensedDistances d,
                                       const std::vector<double>& weights,
                                       ThreadPool* pool) {
  const std::size_t n = d.size();
  LOGR_CHECK(n >= 1);

  Dendrogram out;
  out.num_leaves = n;
  if (n == 1) return out;

  // `d` holds the working distances over active nodes, updated in
  // place; node ids grow as merges happen, but we reuse the slot of the
  // first merged node for the result to keep the store n-point.
  std::vector<double> mass = ResolveMasses(n, weights);
  // slot -> current dendrogram node id occupying it
  std::vector<int> node_of_slot(n);
  std::iota(node_of_slot.begin(), node_of_slot.end(), 0);

  // Chain walk, exact active-slot list, deterministic chunk fold and
  // scan team come from cluster/nn_chain.h (shared with the mixture
  // reconcile); the chunk kernel is WalkChunk.
  NNChainScan scan(n, kScanChunk, pool);

  // Exact top-two cache per slot. A valid `best` equals exactly what a
  // full serial scan would return — value and smallest-index tie-break
  // — so the merge sequence matches the reference bit for bit. A known
  // `second` is the exact minimum over every other slot but `best`.
  // Each merge keeps both exact in place (see the update rule below); a
  // slot is rescanned only when no best survives.
  constexpr std::size_t kNone = NNChainScan::kNone;
  std::vector<NearestTwo> cache(n);

  // Scans read at(a, j) through WalkChunk: a's column for j < a, then
  // its row for j > a.
  auto nearest = [&](std::size_t a) {
    NearestTwo& c = cache[a];
    if (c.best == kNone) {
      const std::uint32_t* list = scan.slots().data();
      const std::size_t split = SlotPosition(scan.slots(), a);
      c = scan.Scan([&](std::size_t lo, std::size_t hi) {
        return WalkChunk(
            d, list, a, split, lo, hi,
            [&](std::size_t j) { __builtin_prefetch(&d.Row(j)[a - j - 1]); },
            [](std::size_t, double e) { return e; });
      });
    }
    return std::make_pair(c.best, c.best_dist);
  };

  // Reciprocal pair (a, b) found: record the merge, then the
  // Lance-Williams weighted average-linkage update into slot a — one
  // write per pair, at(a, j) — fused with the exact cache maintenance.
  // Each iteration writes only its own j-indexed slots, so the schedule
  // never changes a bit. Cache rule for every other active slot j: drop
  // a and b from j's pair (a's distance changed, b is gone); if the
  // best was dropped, promote the second, which is exact because the
  // second is the minimum over every slot but the old best; then offer
  // the updated pair (nd, a). An offer that does not beat the best
  // leaves an unknown second unknown.
  //
  // The pass itself is a scan over the new distances: it visits the
  // same active j != a (b is already out of the slot list) in the same
  // ascending, chunk-folded order a rescan would, so its result is
  // exactly a's new top two. Its column part prefetches both a's entry
  // (to be written) and b's entry ahead.
  auto merge = [&](std::size_t a, std::size_t b, double dist_ab) {
    out.merge_a.push_back(node_of_slot[a]);
    out.merge_b.push_back(node_of_slot[b]);
    out.height.push_back(dist_ab);
    const double ma = mass[a], mb = mass[b];
    const std::uint32_t* list = scan.slots().data();
    const std::size_t split = SlotPosition(scan.slots(), a);
    auto prefetch = [&](std::size_t j) {
      __builtin_prefetch(&d.Row(j)[a - j - 1], 1);
      __builtin_prefetch(&d.at(b, j));
    };
    auto update = [&](std::size_t j2, double& d_a) {
      const double nd = (ma * d_a + mb * d.at(b, j2)) / (ma + mb);
      d_a = nd;
      NearestTwo& c = cache[j2];
      if (c.second == a || c.second == b) c.second = kNone;
      if (c.best == a || c.best == b) {
        c.best = c.second;
        c.best_dist = c.second_dist;
        c.second = kNone;
      }
      if (c.best == kNone) return nd;
      if (Before(nd, a, c.best_dist, c.best)) {
        c.second = c.best;
        c.second_dist = c.best_dist;
        c.best = a;
        c.best_dist = nd;
      } else if (c.second != kNone &&
                 Before(nd, a, c.second_dist, c.second)) {
        c.second = a;
        c.second_dist = nd;
      }
      return nd;
    };
    cache[a] = scan.Scan([&](std::size_t lo, std::size_t hi) {
      return WalkChunk(d, list, a, split, lo, hi, prefetch, update);
    });
    mass[a] = ma + mb;
    node_of_slot[a] = static_cast<int>(n + out.merge_a.size() - 1);
  };

  // Average linkage is reducible, so the chain survives merges.
  NNChainAgglomerate(scan, 1, /*reducible=*/true, nearest, merge);
  return out;
}

}  // namespace logr
