#include "core/sharded.h"

#include <algorithm>

#include "util/check.h"
#include "util/stopwatch.h"

namespace logr {

namespace {

/// FNV-1a over the vector's id bytes: a stable hash (unlike std::hash)
/// so shard membership never varies across runs, platforms, or library
/// versions. Takes the view's raw id span — the same bytes whether the
/// log lives on the heap or in an mmap'd .logrl — so both backings
/// shard identically.
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

/// Degenerate pool for the per-shard pipelines: the shard loop already
/// occupies the shared pool's workers, and a pooled ParallelFor is
/// not reentrant from inside a worker.
ThreadPool* SerialPool() {
  static ThreadPool* pool = new ThreadPool(0);
  return pool;
}

}  // namespace

ShardedCompressor::ShardedCompressor(const LogView& log,
                                     const LogROptions& opts)
    : log_(log), opts_(opts) {
  LOGR_CHECK(log.NumDistinct() > 0);
  LOGR_CHECK(opts.num_shards >= 1);
}

std::size_t ShardedCompressor::ClustersPerShard(std::size_t num_clusters,
                                                std::size_t num_shards) {
  return num_shards > 1 ? 2 * num_clusters : num_clusters;
}

std::vector<std::vector<std::size_t>> ShardedCompressor::PartitionIndices(
    const LogView& log, std::size_t num_shards, ShardPolicy policy) {
  LOGR_CHECK(num_shards >= 1);
  const std::size_t n = log.NumDistinct();
  std::vector<std::vector<std::size_t>> shards(num_shards);
  switch (policy) {
    case ShardPolicy::kHashDistinct:
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t h =
            StableVectorHash(log.VectorIds(i), log.VectorSize(i));
        shards[h % num_shards].push_back(i);
      }
      break;
    case ShardPolicy::kContiguousRange:
      for (std::size_t s = 0; s < num_shards; ++s) {
        const std::size_t lo = s * n / num_shards;
        const std::size_t hi = (s + 1) * n / num_shards;
        for (std::size_t i = lo; i < hi; ++i) shards[s].push_back(i);
      }
      break;
  }
  shards.erase(std::remove_if(shards.begin(), shards.end(),
                              [](const std::vector<std::size_t>& s) {
                                return s.empty();
                              }),
               shards.end());
  return shards;
}

LogRSummary ShardedCompressor::Run() {
  Stopwatch timer;
  const LogView& log = log_;
  const std::vector<std::vector<std::size_t>> shards =
      PartitionIndices(log, opts_.num_shards, opts_.shard_policy);
  const std::size_t S = shards.size();

  // Each shard pipeline reads through a zero-copy subview of the input
  // (mmap or heap alike) — no per-shard QueryLog materialization. The
  // subviews borrow `shards`, which outlives the pipeline loop below.
  std::vector<LogView> shard_views;
  shard_views.reserve(S);
  for (const std::vector<std::size_t>& indices : shards) {
    shard_views.push_back(log.Subview(indices));
  }

  // The merge machinery is exact only for the naive mixture family:
  // resolve the requested encoder up front and fail loudly for
  // non-mergeable ones (e.g. "pattern") instead of silently encoding
  // each shard with something that cannot be pooled.
  const Encoder* encoder = EncoderRegistry::Instance().Find(opts_.encoder);
  LOGR_CHECK_MSG(encoder != nullptr, opts_.encoder.c_str());
  LOGR_CHECK_MSG(encoder->Mergeable(),
                 "sharded compression requires a mergeable encoder "
                 "(shard mixtures are pooled through the naive merge); "
                 "compress monolithically or pick naive/refined");

  LogROptions shard_opts = opts_;
  shard_opts.num_shards = 1;
  shard_opts.pool = SerialPool();
  shard_opts.encoder = "naive";  // shards merge through the naive family
  shard_opts.num_clusters = ClustersPerShard(opts_.num_clusters, S);

  // One pipeline per shard, each writing only its own slot: the schedule
  // never affects the result, so any thread count gives the same bits.
  ThreadPool* pool = opts_.pool ? opts_.pool : ThreadPool::Shared();
  std::vector<LogRSummary> results(S);
  ParallelFor(pool, 0, S, kCoarseGrain, [&](std::size_t s) {
    results[s] = CompressionPipeline(shard_views[s], shard_opts).RunFixedK();
  });

  // Pool the per-shard mixtures with members remapped to global distinct
  // indices. Subview() preserves index order, so shard-local distinct i
  // is global shards[s][i].
  double shard_cluster_seconds = 0.0;
  std::vector<NaiveMixtureEncoding> parts;
  parts.reserve(S);
  for (std::size_t s = 0; s < S; ++s) {
    shard_cluster_seconds += results[s].cluster_seconds;
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
  // nearest-centroid-chain agglomeration (deterministic, backend-free).
  const std::size_t k = std::max<std::size_t>(
      1, std::min(opts_.num_clusters, log.NumDistinct()));
  Stopwatch reconcile_timer;
  NaiveMixtureEncoding reconciled = merged.Reconcile(k, pool);
  // Read before WrapMixture: encode/refine time is not clustering time.
  const double reconcile_seconds = reconcile_timer.ElapsedSeconds();

  LogRSummary out;
  out.assignment.assign(log.NumDistinct(), 0);
  for (std::size_t c = 0; c < reconciled.NumComponents(); ++c) {
    for (std::size_t m : reconciled.Component(c).members) {
      out.assignment[m] = static_cast<int>(c);
    }
  }
  // The requested encoder wraps (and, for "refined", re-refines) the
  // reconciled mixture — refinement runs once, on the merge result.
  EncodeRequest enc_req;
  enc_req.k = reconciled.NumComponents();
  enc_req.pool = pool;
  enc_req.refine_patterns = opts_.refine_patterns;
  enc_req.pattern_budget = opts_.pattern_budget;
  enc_req.seed = opts_.seed;
  out.model = encoder->WrapMixture(log, std::move(reconciled), enc_req);
  out.cluster_seconds = shard_cluster_seconds + reconcile_seconds;
  out.total_seconds = timer.ElapsedSeconds();
  return out;
}

LogRSummary CompressSharded(const LogView& log, const LogROptions& opts) {
  return ShardedCompressor(log, opts).Run();
}

}  // namespace logr
