// Shared scaffolding for nearest-neighbor-chain agglomeration.
//
// Two agglomerations in the codebase walk the same reciprocal-NN chain:
// the hierarchical average-linkage fit (cluster/hierarchical.cc, dense
// Lance-Williams distances) and the sharded-mixture reconcile
// (core/mixture.cc, fused-error linkage between component groups). The
// chain walk, the exact active-slot list, and the deterministic chunked
// argmin fold are identical in both; only the per-chunk linkage kernel,
// the nearest-neighbor caching, and the merge bookkeeping differ. This
// header holds the common machinery, parameterized on those three.
//
// Determinism contract (both call sites depend on it): the argmin
// returns the exact smallest-index minimizer a serial ascending scan
// would pick, for any thread-pool size. Each caller kernel reduces its
// chunk of the ascending slot list to a local minimum in list order
// (strict <, so the first minimum wins), and the chunk minima fold
// serially in chunk order (strict <, so ties resolve to the earlier
// chunk, i.e. the smaller index).
#ifndef LOGR_CLUSTER_NN_CHAIN_H_
#define LOGR_CLUSTER_NN_CHAIN_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace logr {

/// Active-slot set for an agglomeration: `count` slots, all initially
/// active, merged slots deactivated one per merge. Keeps the exact
/// ascending list of active slots, so scans visit only live slots, plus
/// reusable state for the chunked argmin fold.
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

  /// The active slots, ascending. Valid until the next Deactivate().
  const std::vector<std::uint32_t>& slots() const { return slot_list_; }

  /// Removes active slot `s` from the list; deactivating a slot twice
  /// is a caller bug and aborts.
  void Deactivate(std::size_t s) {
    const auto it =
        std::lower_bound(slot_list_.begin(), slot_list_.end(), s);
    LOGR_CHECK(it != slot_list_.end() && *it == s);
    slot_list_.erase(it);
    active_[s] = 0;
  }

  /// Deterministic chunked argmin over the active slots j != a (see the
  /// header comment for the tie-break contract). `chunk(lo, hi)` scans
  /// positions [lo, hi) of slots() in ascending order, skipping `a`, and
  /// returns that chunk's {best, arg} — its first (smallest-index)
  /// minimum, or arg == kNone when it holds no slot but `a`. The chunks
  /// fold serially here. Returns {arg, best}; arg == a when no other
  /// slot is active.
  template <typename ChunkFn>
  std::pair<std::size_t, double> Argmin(std::size_t a, const ChunkFn& chunk) {
    const std::size_t list_len = slot_list_.size();
    const std::size_t num_chunks =
        (list_len + scan_chunk_ - 1) / scan_chunk_;
    ParallelFor(pool_, 0, num_chunks, kFineGrain, [&](std::size_t c) {
      const std::size_t lo = c * scan_chunk_;
      const std::pair<double, std::size_t> found =
          chunk(lo, std::min(list_len, lo + scan_chunk_));
      chunk_best_[c] = found.first;
      chunk_arg_[c] = found.second;
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
/// slot b into slot a; b is already deactivated (out of the slot list)
/// when it runs.
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
  std::vector<std::size_t> chain;
  chain.reserve(scan.size());
  while (scan.slots().size() > target) {
    if (chain.empty()) chain.push_back(scan.slots().front());
    for (;;) {
      const std::size_t a = chain.back();
      const std::pair<std::size_t, double> nb = nearest(a);
      const std::size_t b = nb.first;
      if (chain.size() >= 2 && b == chain[chain.size() - 2]) {
        chain.pop_back();
        chain.pop_back();
        scan.Deactivate(b);
        merge(a, b, nb.second);
        if (!reducible) chain.clear();
        break;
      }
      chain.push_back(b);
    }
  }
}

}  // namespace logr

#endif  // LOGR_CLUSTER_NN_CHAIN_H_
