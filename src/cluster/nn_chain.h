// Shared scaffolding for nearest-neighbor-chain agglomeration.
//
// Two agglomerations in the codebase walk the same reciprocal-NN chain:
// the hierarchical average-linkage fit (cluster/hierarchical.cc, dense
// Lance-Williams distances) and the sharded-mixture reconcile
// (core/mixture.cc, fused-error linkage between component groups). The
// chain walk, the active-slot bookkeeping, and the deterministic
// chunked argmin scan are identical in both; only the linkage, the
// nearest-neighbor caching, and the merge bookkeeping differ. This
// header holds the common machinery, parameterized on those three.
//
// Determinism contract (both call sites depend on it): the argmin scan
// returns the exact smallest-index minimizer a serial ascending scan
// would pick, for any thread-pool size. Chunks reduce to local minima
// in ascending index order (strict <, so the first minimum wins), and
// the chunk minima fold serially in chunk order (strict <, so ties
// resolve to the earlier chunk, i.e. the smaller index).
#ifndef LOGR_CLUSTER_NN_CHAIN_H_
#define LOGR_CLUSTER_NN_CHAIN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace logr {

/// Active-slot set for an agglomeration: `count` slots, all initially
/// active, merged slots deactivated one per merge. Maintains a compact
/// ascending slot list so scans track the shrinking active set (dead
/// entries are swept once they reach half the list — deterministic, and
/// iteration order stays ascending, so results never depend on when the
/// sweep runs), plus reusable state for the chunked argmin scan.
class NNChainScan {
 public:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  /// `scan_chunk` is the per-chunk edge of the parallel argmin. The
  /// chunks are a kFineGrain loop: up to 64 of them run inline (results
  /// are identical either way).
  NNChainScan(std::size_t count, std::size_t scan_chunk, ThreadPool* pool)
      : pool_(pool),
        scan_chunk_(scan_chunk),
        active_(count, 1),
        slot_list_(count),
        chunk_best_((count + scan_chunk - 1) / scan_chunk),
        chunk_arg_(chunk_best_.size()) {
    std::iota(slot_list_.begin(), slot_list_.end(), 0);
  }

  std::size_t size() const { return active_.size(); }
  bool IsActive(std::size_t s) const { return active_[s] != 0; }

  /// The (mostly) active ascending slot list; entries must be re-checked
  /// with IsActive. Valid until the next MaybeCompact().
  const std::vector<std::uint32_t>& slots() const { return slot_list_; }

  void Deactivate(std::size_t s) {
    active_[s] = 0;
    ++dead_;
  }

  void MaybeCompact() {
    if (dead_ * 2 <= slot_list_.size()) return;
    slot_list_.erase(
        std::remove_if(slot_list_.begin(), slot_list_.end(),
                       [&](std::uint32_t s) { return !active_[s]; }),
        slot_list_.end());
    dead_ = 0;
  }

  /// Deterministic chunked argmin of `linkage(j)` over active slots
  /// j != a (see the header comment for the tie-break contract).
  /// Returns {arg, best}; arg == a when no other slot is active.
  template <typename LinkageFn>
  std::pair<std::size_t, double> Argmin(std::size_t a,
                                        const LinkageFn& linkage) {
    const std::size_t list_len = slot_list_.size();
    const std::size_t num_chunks =
        (list_len + scan_chunk_ - 1) / scan_chunk_;
    const std::uint32_t* list = slot_list_.data();
    ParallelFor(pool_, 0, num_chunks, kFineGrain, [&](std::size_t c) {
      const std::size_t lo = c * scan_chunk_;
      const std::size_t hi = std::min(list_len, lo + scan_chunk_);
      double best = std::numeric_limits<double>::max();
      std::size_t arg = kNone;
      for (std::size_t p = lo; p < hi; ++p) {
        const std::size_t j = list[p];
        if (!active_[j] || j == a) continue;
        const double d = linkage(j);
        // Ascending j keeps the first (smallest-index) minimum.
        if (d < best) {
          best = d;
          arg = j;
        }
      }
      chunk_best_[c] = best;
      chunk_arg_[c] = arg;
    });
    double best = std::numeric_limits<double>::max();
    std::size_t arg = a;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      // Strict <: ties resolve to the earlier chunk, i.e. the smaller
      // index, matching the serial scan.
      if (chunk_arg_[c] != kNone && chunk_best_[c] < best) {
        best = chunk_best_[c];
        arg = chunk_arg_[c];
      }
    }
    return std::make_pair(arg, best);
  }

 private:
  ThreadPool* pool_;
  std::size_t scan_chunk_;
  std::vector<std::uint8_t> active_;
  std::vector<std::uint32_t> slot_list_;
  std::size_t dead_ = 0;
  // Chunked scan state, reused across Argmin calls.
  std::vector<double> chunk_best_;
  std::vector<std::size_t> chunk_arg_;
};

/// Reciprocal-nearest-neighbor chain walk: grows a chain of successive
/// nearest neighbors until the last two links point at each other, fuses
/// that pair, and repeats until `target` groups remain.
///
/// `nearest(a)` must return the exact {arg, linkage} an ascending serial
/// scan over active slots would (NNChainScan::Argmin qualifies; callers
/// typically wrap it in their own caching). `merge(a, b, linkage)` fuses
/// slot b into slot a; b is already deactivated when it runs, and the
/// driver compacts the slot list afterwards.
///
/// `reducible` declares the Lance-Williams reducibility property: a
/// merge never moves the fused group closer to any third group than the
/// two parents were. Under it the chain prefix stays valid across
/// merges and is kept (hierarchical average linkage). A non-reducible
/// linkage (the reconcile's fused-error delta) may invalidate the
/// prefix, so the chain restarts after every merge — the caches carried
/// by `nearest` keep the rebuild cheap, and the restart point (the
/// smallest active slot) is deterministic.
template <typename NearestFn, typename MergeFn>
void NNChainAgglomerate(NNChainScan& scan, std::size_t target,
                        bool reducible, const NearestFn& nearest,
                        const MergeFn& merge) {
  const std::size_t count = scan.size();
  std::vector<std::size_t> chain;
  chain.reserve(count);
  std::size_t remaining = count;
  while (remaining > target) {
    if (chain.empty()) {
      for (std::size_t i = 0; i < count; ++i) {
        if (scan.IsActive(i)) {
          chain.push_back(i);
          break;
        }
      }
    }
    for (;;) {
      const std::size_t a = chain.back();
      const std::pair<std::size_t, double> nb = nearest(a);
      const std::size_t b = nb.first;
      if (chain.size() >= 2 && b == chain[chain.size() - 2]) {
        chain.pop_back();
        chain.pop_back();
        scan.Deactivate(b);
        merge(a, b, nb.second);
        scan.MaybeCompact();
        --remaining;
        if (!reducible) chain.clear();
        break;
      }
      chain.push_back(b);
    }
  }
}

}  // namespace logr

#endif  // LOGR_CLUSTER_NN_CHAIN_H_
