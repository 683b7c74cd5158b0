#include "core/logr_compressor.h"

#include <algorithm>

#include "cluster/distance.h"
#include "core/sharded.h"
#include "util/check.h"
#include "util/prng.h"
#include "util/stopwatch.h"

namespace logr {

namespace {

/// The Encoder opts.encoder names; aborts on an unknown name.
Encoder EncoderFor(const LogROptions& opts) {
  Encoder encoder = Encoder::kNaive;
  LOGR_CHECK_MSG(ParseEncoder(opts.encoder, &encoder), opts.encoder.c_str());
  return encoder;
}

/// Encodes the `k`-way partition `assignment` of `log` with `encoder`,
/// taking the pattern budgets from `opts`.
std::shared_ptr<const WorkloadModel> Encode(
    Encoder encoder, const LogView& log, const std::vector<int>& assignment,
    std::size_t k, const LogROptions& opts, ThreadPool* pool) {
  switch (encoder) {
    case Encoder::kNaive:
      return std::make_shared<NaiveMixtureModel>(
          NaiveMixtureEncoding::FromPartition(log, assignment, k, pool));
    case Encoder::kRefined:
      return RefineMixture(
          log, NaiveMixtureEncoding::FromPartition(log, assignment, k, pool),
          opts.refine_patterns, pool);
    case Encoder::kPattern:
      break;
  }
  return EncodePatterns(log, assignment, k, opts.pattern_budget, pool);
}

/// ClusterRequest for a K-cluster run under `opts`, carrying no packed
/// pool.
ClusterRequest ClusterRequestFor(const LogROptions& opts, std::size_t k,
                                 std::size_t num_features, ThreadPool* pool) {
  ClusterRequest req;
  req.k = k;
  req.num_features = num_features;
  req.seed = opts.seed;
  req.n_init = opts.n_init;
  req.pool = pool;
  return req;
}

}  // namespace

const WorkloadModel& LogRSummary::Model() const {
  LOGR_CHECK_MSG(model != nullptr, "summary holds no model");
  return *model;
}

LogRSummary Compress(const LogView& log, const LogROptions& opts) {
  if (opts.num_shards > 1) return CompressSharded(log, opts);
  Stopwatch timer;
  const std::size_t n = log.NumDistinct();
  LOGR_CHECK(n > 0);
  ThreadPool* pool = opts.pool ? opts.pool : ThreadPool::Shared();
  const Encoder encoder = EncoderFor(opts);
  std::vector<FeatureVec> vecs;
  std::vector<double> weights;
  vecs.reserve(n);
  weights.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    vecs.push_back(log.VectorAt(i));
    weights.push_back(static_cast<double>(log.Multiplicity(i)));
  }

  // More clusters than distinct vectors buys nothing and would make the
  // encoder allocate opts.num_clusters components.
  const std::size_t k = std::min(opts.num_clusters, n);
  ClusterRequest req = ClusterRequestFor(opts, k, log.NumFeatures(), pool);
  LogRSummary out;
  // The one pool per compression: packed straight from the view's id
  // spans (zero copies off an mmap'd log) and shared with every
  // distance / seeding consumer. Oversized universes skip it and the
  // methods fall back to their merge kernels.
  const std::uint64_t builds_at_start = PackedVecPool::BuildCount();
  PackedVecPool packed;
  if (PackedPoolFits(n, log.NumFeatures())) {
    Stopwatch pack_timer;
    packed = log.Pack();
    req.packed = &packed;
    out.pack_seconds = pack_timer.ElapsedSeconds();
  }

  Stopwatch cluster_timer;
  out.assignment = Cluster(opts.method, vecs, weights, req);
  out.cluster_seconds = cluster_timer.ElapsedSeconds();
  out.model = Encode(encoder, log, out.assignment, k, opts, pool);
  out.pool_builds = PackedVecPool::BuildCount() - builds_at_start;
  out.total_seconds = timer.ElapsedSeconds();
  return out;
}

LogRSummary CompressAdaptive(const LogView& log, const LogROptions& opts) {
  // Sharding covers Compress only; fail loudly rather than silently
  // running one monolithic compression for a caller who asked for
  // shards (the adaptive bisection is global).
  LOGR_CHECK_MSG(opts.num_shards <= 1,
                 "num_shards > 1 is only supported by Compress");
  Stopwatch timer;
  LOGR_CHECK(log.NumDistinct() > 0);
  ThreadPool* pool = opts.pool ? opts.pool : ThreadPool::Shared();
  const Encoder encoder = EncoderFor(opts);
  const std::uint64_t builds_at_start = PackedVecPool::BuildCount();
  Pcg32 rng(opts.seed);
  const std::size_t num_clusters =
      std::min(opts.num_clusters, log.NumDistinct());

  LogRSummary out;
  std::vector<int>& assignment = out.assignment;
  assignment.assign(log.NumDistinct(), 0);
  std::size_t k = 1;
  std::vector<bool> splittable(1, true);

  while (k < num_clusters) {
    NaiveMixtureEncoding current =
        NaiveMixtureEncoding::FromPartition(log, assignment, k, pool);
    // Pick the splittable cluster with the largest weighted error.
    double worst_err = 0.0;
    int worst = -1;
    for (std::size_t c = 0; c < current.NumComponents(); ++c) {
      const MixtureComponent& comp = current.Component(c);
      if (comp.members.size() < 2) continue;
      int label = assignment[comp.members[0]];
      if (!splittable[label]) continue;
      double contribution = comp.weight * comp.encoding.ReproductionError();
      if (contribution > worst_err) {
        worst_err = contribution;
        worst = label;
      }
    }
    if (worst < 0 || worst_err <= 1e-12) break;  // nothing left to gain

    // Bisect the worst cluster with the configured method. The request
    // carries no packed pool: the bisection clusters a subset.
    std::vector<std::size_t> members;
    std::vector<FeatureVec> vecs;
    std::vector<double> weights;
    for (std::size_t i = 0; i < assignment.size(); ++i) {
      if (assignment[i] == worst) {
        members.push_back(i);
        vecs.push_back(log.VectorAt(i));
        weights.push_back(static_cast<double>(log.Multiplicity(i)));
      }
    }
    ClusterRequest req = ClusterRequestFor(opts, 2, log.NumFeatures(), pool);
    // Each bisection gets a fresh seed from `rng`: the draw order is
    // deterministic, so results are reproducible and independent of the
    // thread count. Separate statements — operand evaluation order
    // within one expression is compiler-specific.
    const std::uint64_t seed_hi = rng.Next();
    const std::uint64_t seed_lo = rng.Next();
    req.seed = (seed_hi << 32) | seed_lo;
    Stopwatch cluster_timer;
    std::vector<int> split = Cluster(opts.method, vecs, weights, req);
    out.cluster_seconds += cluster_timer.ElapsedSeconds();
    bool moved_any = false;
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (split[j] == 1) {
        assignment[members[j]] = static_cast<int>(k);
        moved_any = true;
      }
    }
    bool kept_any = false;
    for (std::size_t j = 0; j < members.size(); ++j) {
      if (assignment[members[j]] == worst) {
        kept_any = true;
        break;
      }
    }
    if (!moved_any || !kept_any) {
      // Degenerate split: identical vectors modulo weights; freeze it.
      for (std::size_t j = 0; j < members.size(); ++j) {
        assignment[members[j]] = worst;
      }
      splittable[worst] = false;
      continue;
    }
    splittable.push_back(true);
    ++k;
  }

  out.model = Encode(encoder, log, assignment, k, opts, pool);
  out.pool_builds = PackedVecPool::BuildCount() - builds_at_start;
  out.total_seconds = timer.ElapsedSeconds();
  return out;
}

}  // namespace logr
