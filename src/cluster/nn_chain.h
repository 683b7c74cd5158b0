// Shared scaffolding for nearest-neighbor-chain agglomeration.
//
// Two agglomerations in the codebase walk the same reciprocal-NN chain:
// the hierarchical average-linkage fit (cluster/hierarchical.cc, dense
// Lance-Williams distances) and the sharded-mixture reconcile
// (core/mixture.cc, fused-error linkage between component groups). The
// chain walk, the exact active-slot list, the deterministic chunked
// argmin fold and the scan team are identical in both; only the
// per-chunk linkage kernel, the nearest-neighbor caching, and the merge
// bookkeeping differ. This header holds the common machinery,
// parameterized on those three.
//
// Scan team: NNChainAgglomerate runs its chain walk as task 0 of one
// pool job; the pool's other tasks join as helpers for the whole
// agglomeration. Every scan of at least kTeamMinChunks chunks publishes
// its chunk range through one atomic word (generation, chunk count,
// cursor); the walking thread and the helpers claim blocks of chunks
// from it, so one scan costs a few atomics instead of a pool dispatch.
// Shorter scans, and every scan when the pool has one thread, run
// inline on the walking thread.
//
// Determinism contract (both call sites depend on it): a scan returns
// the exact (linkage, index)-lexicographic top two a serial ascending
// scan would pick, for any thread-pool size. Each caller kernel reduces
// its chunk of the ascending slot list to a local top two in list order
// (strict <, so the first minimum wins), and the chunk results fold
// serially in chunk order (strict <, so ties resolve to the earlier
// chunk, i.e. the smaller index), whichever thread ran each chunk.
#ifndef LOGR_CLUSTER_NN_CHAIN_H_
#define LOGR_CLUSTER_NN_CHAIN_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace logr {

/// The two smallest (linkage, slot) pairs of a scan, in lexicographic
/// order: smaller linkage first, ties to the smaller slot. A missing
/// entry has slot kNone and linkage max().
struct NearestTwo {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  double best_dist = std::numeric_limits<double>::max();
  double second_dist = std::numeric_limits<double>::max();
  std::size_t best = kNone;
  std::size_t second = kNone;

  /// Folds in (x, j), where j exceeds every slot pushed so far with a
  /// linkage equal to x (an ascending scan, or chunk results in chunk
  /// order): strict < keeps the earlier slot on ties.
  void Push(double x, std::size_t j) {
    if (!(x < second_dist)) return;
    if (x < best_dist) {
      second_dist = best_dist;
      second = best;
      best_dist = x;
      best = j;
    } else {
      second_dist = x;
      second = j;
    }
  }
};

/// Active-slot set for an agglomeration: `count` slots, all initially
/// active, merged slots deactivated one per merge. Keeps the exact
/// ascending list of active slots, so scans visit only live slots, plus
/// the chunked scan state and the scan team.
class NNChainScan {
 public:
  static constexpr std::size_t kNone = NearestTwo::kNone;

  /// Scans of fewer chunks run inline: below ~512 slots a scan takes a
  /// couple of microseconds, which the claim traffic would eat.
  static constexpr std::size_t kTeamMinChunks = 8;

  /// `scan_chunk` is the slot-list length of one chunk, the unit a scan
  /// is split into (results are identical for any split). `pool` lends
  /// the team (nullptr = serial).
  NNChainScan(std::size_t count, std::size_t scan_chunk, ThreadPool* pool)
      : pool_(pool),
        scan_chunk_(scan_chunk),
        active_(count, 1),
        slot_list_(count),
        chunk_min_((count + scan_chunk - 1) / scan_chunk) {
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

  /// Runs `leader()` with the pool's other threads standing by as
  /// helpers: scans the leader issues in the meantime run on the team.
  /// Takes one pool job for the whole call; the helpers return to the
  /// pool when `leader` does. A scan never waits for a helper that has
  /// not arrived (the leader claims chunks too), so a busy pool only
  /// costs speed. Not reentrant, and `leader` must not dispatch to the
  /// pool itself (see ThreadPool::Dispatch).
  template <typename LeaderFn>
  void RunTeam(const LeaderFn& leader) {
    const std::size_t threads = pool_ == nullptr ? 1 : pool_->NumThreads();
    if (threads <= 1) {
      leader();
      return;
    }
    stop_.store(false, std::memory_order_relaxed);
    ParallelFor(pool_, 0, threads, kCoarseGrain, [&](std::size_t task) {
      if (task != 0) {
        Help(threads);
        return;
      }
      // Releases the helpers however the leader leaves.
      struct Disband {
        NNChainScan* scan;
        ~Disband() {
          scan->team_size_ = 1;
          scan->stop_.store(true, std::memory_order_release);
        }
      } disband{this};
      team_size_ = threads;
      leader();
    });
  }

  /// Deterministic chunked scan over the active slots (see the header
  /// comment for the tie-break contract). `chunk(lo, hi)` scans
  /// positions [lo, hi) of slots() in ascending order, skipping the
  /// caller's own slot, and returns that chunk's NearestTwo (Push does
  /// the in-order reduction). It may run on any team thread,
  /// concurrently with other chunks, and must not throw. The chunks fold
  /// serially here, in chunk order.
  template <typename ChunkFn>
  NearestTwo Scan(const ChunkFn& chunk) {
    const std::size_t list_len = slot_list_.size();
    const std::size_t num_chunks =
        (list_len + scan_chunk_ - 1) / scan_chunk_;
    auto run = [&](std::size_t c) {
      const std::size_t lo = c * scan_chunk_;
      chunk_min_[c] = chunk(lo, std::min(list_len, lo + scan_chunk_));
    };
    if (team_size_ > 1 && num_chunks >= kTeamMinChunks &&
        num_chunks <= kMaxTeamChunks) {
      RunOnTeam(num_chunks, run);
    } else {
      for (std::size_t c = 0; c < num_chunks; ++c) run(c);
    }
    NearestTwo out;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const NearestTwo& m = chunk_min_[c];
      if (m.best != kNone) out.Push(m.best_dist, m.best);
      if (m.second != kNone) out.Push(m.second_dist, m.second);
    }
    return out;
  }

  /// Scan for kernels that track only the best: `chunk(lo, hi)` returns
  /// that chunk's first minimum {best, arg}, arg == kNone when it holds
  /// no slot but `a`. Returns {arg, best}; arg == a when no other slot
  /// is active.
  template <typename ChunkFn>
  std::pair<std::size_t, double> Argmin(std::size_t a, const ChunkFn& chunk) {
    const NearestTwo found = Scan([&](std::size_t lo, std::size_t hi) {
      const std::pair<double, std::size_t> m = chunk(lo, hi);
      NearestTwo t;
      t.best_dist = m.first;
      t.best = m.second;
      return t;
    });
    return found.best == kNone ? std::make_pair(a, found.best_dist)
                               : std::make_pair(found.best, found.best_dist);
  }

 private:
  // Work word: generation (high 32 bits), chunk count, cursor (16 bits
  // each). Longer scans (over 4M slots) run inline.
  static constexpr std::size_t kMaxTeamChunks = 0xFFFF;
  static std::uint64_t Pack(std::uint64_t gen, std::uint64_t count,
                            std::uint64_t cursor) {
    return gen << 32 | count << 16 | cursor;
  }
  static std::uint32_t Gen(std::uint64_t w) {
    return static_cast<std::uint32_t>(w >> 32);
  }
  static std::size_t Count(std::uint64_t w) { return (w >> 16) & 0xFFFF; }
  static std::size_t Cursor(std::uint64_t w) { return w & 0xFFFF; }

  /// Spin-wait step: `pause` first, then yield the core.
  static void Backoff(unsigned* spins) {
    if (++*spins < 2048) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#elif defined(__aarch64__)
      asm volatile("yield");
#endif
    } else {
      std::this_thread::yield();
    }
  }

  /// The job a team thread last fetched, and the scan it belongs to.
  struct HeldJob {
    bool valid = false;
    std::uint32_t gen = 0;
    void (*fn)(const void* ctx, std::size_t c) = nullptr;
    const void* ctx = nullptr;
  };

  /// Claims one block of about count / (2 * threads) chunks of the scan
  /// published in `*w` and runs it. Returns false when `*w` has no chunk
  /// left to claim; otherwise `*w` is reloaded and true returned, also
  /// when the claim lost a race.
  bool ClaimBlock(std::uint64_t* w, HeldJob* job, std::size_t threads) {
    const std::size_t count = Count(*w), cursor = Cursor(*w);
    if (cursor >= count) return false;
    const std::size_t end =
        std::min(count, cursor + std::max<std::size_t>(
                                     1, count / (2 * threads)));
    if (!work_.compare_exchange_weak(*w, Pack(Gen(*w), count, end),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return true;
    }
    // A won claim pins the scan: the leader publishes the next one only
    // after every claimed chunk is done. The job is fetched once per
    // scan; the generation in the word is what tells a thread that the
    // job it holds is stale (counts and cursors repeat between scans).
    if (!job->valid || job->gen != Gen(*w)) {
      *job = HeldJob{true, Gen(*w), job_fn_, job_ctx_};
    }
    for (std::size_t c = cursor; c < end; ++c) job->fn(job->ctx, c);
    done_.fetch_add(end - cursor, std::memory_order_release);
    *w = work_.load(std::memory_order_acquire);
    return true;
  }

  /// Publishes one scan of `num_chunks` chunks to the team, claims
  /// blocks of it like any helper, then waits for the blocks helpers
  /// claimed.
  template <typename RunFn>
  void RunOnTeam(std::size_t num_chunks, const RunFn& run) {
    job_fn_ = [](const void* ctx, std::size_t c) {
      (*static_cast<const RunFn*>(ctx))(c);
    };
    job_ctx_ = &run;
    done_.store(0, std::memory_order_relaxed);
    std::uint64_t w =
        Pack(Gen(work_.load(std::memory_order_relaxed)) + 1u, num_chunks, 0);
    work_.store(w, std::memory_order_release);
    HeldJob job;
    while (ClaimBlock(&w, &job, team_size_)) {
    }
    unsigned spins = 0;
    while (done_.load(std::memory_order_acquire) != num_chunks) {
      Backoff(&spins);
    }
  }

  /// A helper's life: claim blocks of whatever scan is published until
  /// the leader disbands the team.
  void Help(std::size_t threads) {
    HeldJob job;
    unsigned spins = 0;
    while (!stop_.load(std::memory_order_acquire)) {
      std::uint64_t w = work_.load(std::memory_order_acquire);
      if (ClaimBlock(&w, &job, threads)) {
        spins = 0;
      } else {
        Backoff(&spins);
      }
    }
  }

  ThreadPool* pool_;
  std::size_t scan_chunk_;
  std::vector<std::uint8_t> active_;
  std::vector<std::uint32_t> slot_list_;
  // Per-chunk scan results, reused across scans.
  std::vector<NearestTwo> chunk_min_;

  // Team state. team_size_ is the leader's: > 1 only inside RunTeam.
  // job_fn_/job_ctx_ describe the published scan.
  std::size_t team_size_ = 1;
  void (*job_fn_)(const void* ctx, std::size_t c) = nullptr;
  const void* job_ctx_ = nullptr;
  std::atomic<std::uint64_t> work_{0};
  std::atomic<std::size_t> done_{0};
  std::atomic<bool> stop_{false};
};

/// Reciprocal-nearest-neighbor chain walk: grows a chain of successive
/// nearest neighbors until the last two links point at each other, fuses
/// that pair, and repeats until `target` groups remain. Runs on the
/// scan's team (NNChainScan::RunTeam).
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
  scan.RunTeam([&] {
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
  });
}

}  // namespace logr

#endif  // LOGR_CLUSTER_NN_CHAIN_H_
