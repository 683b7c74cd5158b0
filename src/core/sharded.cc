#include "core/sharded.h"

#include <algorithm>
#include <cstdint>

#include "util/check.h"
#include "util/stopwatch.h"

namespace logr {

namespace {

/// An FNV-1a-style hash over the vector's id bytes: a stable hash
/// (unlike std::hash) so shard membership never varies across runs,
/// platforms, or library versions. It is not FNV-1a proper: the offset
/// basis 1469598103934665603 is one digit short of FNV-1a's
/// 14695981039346656037. The basis must stay as it is, because it fixes
/// which shard each template goes to; the output manifest's `split`,
/// `--shards 4` and `distribute` rows pin it. Takes the view's raw id
/// span — the same bytes whether the log lives on the heap or in an
/// mmap'd .logrl — so both backings shard identically.
std::uint64_t StableVectorHash(const FeatureId* ids, std::size_t len) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < len; ++i) {
    const FeatureId f = ids[i];
    for (int shift = 0; shift < 32; shift += 8) {
      h ^= static_cast<std::uint64_t>((f >> shift) & 0xffu);
      h *= 1099511628211ull;
    }
  }
  return h;
}

}  // namespace

LogRSummary CompressShard(const LogView& shard, const LogROptions& opts) {
  // Leaked like ThreadPool::Shared(). With no threads every ParallelFor
  // runs inline; a pooled one is not reentrant from the shard loop's
  // workers.
  static ThreadPool* const serial = new ThreadPool(0);
  LogROptions shard_opts;
  shard_opts.method = opts.method;
  shard_opts.seed = opts.seed;
  shard_opts.n_init = opts.n_init;
  shard_opts.num_clusters = opts.num_clusters;
  shard_opts.pool = serial;
  return Compress(shard, shard_opts);
}

std::size_t ClustersPerShard(std::size_t num_clusters,
                             std::size_t num_shards) {
  if (num_shards <= 1) return num_clusters;
  return num_clusters > SIZE_MAX / 2 ? SIZE_MAX : 2 * num_clusters;
}

std::vector<std::vector<std::size_t>> PartitionIndices(const LogView& log,
                                                       std::size_t num_shards) {
  LOGR_CHECK(num_shards >= 1);
  // Sort the indices by bucket, so memory is O(NumDistinct) at any
  // num_shards; the stable sort keeps each bucket's indices ascending.
  const std::size_t count = log.NumDistinct();
  std::vector<std::uint64_t> bucket(count);
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) {
    bucket[i] = StableVectorHash(log.VectorIds(i), log.VectorSize(i)) %
                num_shards;
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return bucket[a] < bucket[b];
                   });
  std::vector<std::vector<std::size_t>> shards;
  for (std::size_t at = 0; at < count; ++at) {
    if (at == 0 || bucket[order[at]] != bucket[order[at - 1]]) {
      shards.emplace_back();
    }
    shards.back().push_back(order[at]);
  }
  return shards;
}

LogRSummary CompressSharded(const LogView& log, const LogROptions& opts) {
  LOGR_CHECK(log.NumDistinct() > 0);
  LOGR_CHECK(opts.num_shards >= 1);
  Stopwatch timer;
  // Concurrent shard fits overlap in the process-wide counter, so
  // the run reports one delta rather than a sum of per-shard deltas.
  const std::uint64_t builds_at_start = PackedVecPool::BuildCount();
  const std::vector<std::vector<std::size_t>> shards =
      PartitionIndices(log, opts.num_shards);
  const std::size_t S = shards.size();

  // Each shard fit reads through a zero-copy subview of the input
  // (mmap or heap alike) — no per-shard QueryLog materialization. The
  // subviews borrow `shards`, which outlives the shard loop below.
  std::vector<LogView> shard_views;
  shard_views.reserve(S);
  for (const std::vector<std::size_t>& indices : shards) {
    shard_views.push_back(log.Subview(indices));
  }

  // The merge machinery is exact only for the naive mixture family:
  // resolve the requested encoder up front and fail loudly for
  // non-mergeable ones (e.g. "pattern") instead of silently encoding
  // each shard with something that cannot be pooled.
  Encoder encoder = Encoder::kNaive;
  LOGR_CHECK_MSG(ParseEncoder(opts.encoder, &encoder), opts.encoder.c_str());
  LOGR_CHECK_MSG(Mergeable(encoder),
                 "sharded compression requires a mergeable encoder "
                 "(shard mixtures are pooled through the naive merge); "
                 "compress monolithically or pick naive/refined");

  // One fit per shard, each writing only its own slot: the schedule
  // never affects the result, so any thread count gives the same bits.
  LogROptions shard_opts = opts;
  shard_opts.num_clusters = ClustersPerShard(opts.num_clusters, S);
  ThreadPool* pool = opts.pool ? opts.pool : ThreadPool::Shared();
  std::vector<LogRSummary> results(S);
  ParallelFor(pool, 0, S, kCoarseGrain, [&](std::size_t s) {
    results[s] = CompressShard(shard_views[s], shard_opts);
  });

  // Pool the per-shard mixtures with members remapped to global distinct
  // indices. Subview() preserves index order, so shard-local distinct i
  // is global shards[s][i].
  double shard_cluster_seconds = 0.0;
  double shard_pack_seconds = 0.0;
  std::vector<NaiveMixtureEncoding> parts;
  parts.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    shard_cluster_seconds += results[s].cluster_seconds;
    shard_pack_seconds += results[s].pack_seconds;
    const NaiveMixtureEncoding& shard_mix =
        *results[s].Model().AsNaiveMixture();
    std::vector<MixtureComponent> comps;
    comps.reserve(shard_mix.NumComponents());
    for (std::size_t c = 0; c < shard_mix.NumComponents(); ++c) {
      MixtureComponent comp = shard_mix.Component(c);
      for (std::size_t& m : comp.members) m = shards[s][m];
      comps.push_back(std::move(comp));
    }
    parts.push_back(NaiveMixtureEncoding::FromComponents(std::move(comps)));
  }
  std::vector<const NaiveMixtureEncoding*> part_ptrs;
  part_ptrs.reserve(S);
  for (const NaiveMixtureEncoding& p : parts) part_ptrs.push_back(&p);
  NaiveMixtureEncoding merged = NaiveMixtureEncoding::Merge(part_ptrs);

  // Reconcile the pooled components down to the requested K with the
  // nearest-centroid-chain agglomeration (deterministic, and the same
  // whatever clustering method fitted the shards).
  const std::size_t k = std::max<std::size_t>(
      1, std::min(opts.num_clusters, log.NumDistinct()));
  Stopwatch reconcile_timer;
  NaiveMixtureEncoding reconciled = merged.Reconcile(k, pool);
  // Read before RefineMixture: refine time is not clustering time.
  const double reconcile_seconds = reconcile_timer.ElapsedSeconds();

  LogRSummary out;
  out.assignment.assign(log.NumDistinct(), 0);
  for (std::size_t c = 0; c < reconciled.NumComponents(); ++c) {
    for (std::size_t m : reconciled.Component(c).members) {
      out.assignment[m] = static_cast<int>(c);
    }
  }
  // The reconciled mixture is the naive model; "refined" refines it
  // here, so refinement runs once, on the merge result.
  if (encoder == Encoder::kRefined) {
    out.model =
        RefineMixture(log, std::move(reconciled), opts.refine_patterns, pool);
  } else {
    out.model = std::make_shared<NaiveMixtureModel>(std::move(reconciled));
  }
  out.cluster_seconds = shard_cluster_seconds + reconcile_seconds;
  out.pack_seconds = shard_pack_seconds;
  out.pool_builds = PackedVecPool::BuildCount() - builds_at_start;
  out.total_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace logr
