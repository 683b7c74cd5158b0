#include "core/pipeline.h"

#include <algorithm>

#include "cluster/distance.h"
#include "util/check.h"

namespace logr {

const char* ShardPolicyName(ShardPolicy p) {
  switch (p) {
    case ShardPolicy::kHashDistinct: return "hash";
    case ShardPolicy::kContiguousRange: return "range";
  }
  return "?";
}

bool ParseShardPolicy(const std::string& name, ShardPolicy* out) {
  LOGR_CHECK(out != nullptr);
  if (name == "hash") {
    *out = ShardPolicy::kHashDistinct;
  } else if (name == "range") {
    *out = ShardPolicy::kContiguousRange;
  } else {
    return false;
  }
  return true;
}

EncodeRequest EncodeRequestFor(const LogROptions& opts, std::size_t k,
                               ThreadPool* pool) {
  EncodeRequest req;
  req.k = k;
  req.pool = pool;
  req.refine_patterns = opts.refine_patterns;
  req.pattern_budget = opts.pattern_budget;
  req.seed = opts.seed;
  return req;
}

const WorkloadModel& LogRSummary::Model() const {
  LOGR_CHECK_MSG(model != nullptr, "summary holds no model");
  return *model;
}

ClusterRequest PipelineContext::Request(std::size_t k) const {
  ClusterRequest req;
  req.k = k;
  req.num_features = num_features;
  req.seed = opts.seed;
  req.n_init = opts.n_init;
  req.pool = pool;
  // Full-log requests share the context's pool; callers clustering a
  // *subset* of the vectors (adaptive bisection) must null this out —
  // pool rows are indexed by full-log distinct index.
  req.packed = has_packed ? &packed : nullptr;
  return req;
}

CompressionPipeline::CompressionPipeline(const LogView& log,
                                         const LogROptions& opts) {
  LOGR_CHECK(log.NumDistinct() > 0);
  ctx_.log = log;
  ctx_.opts = opts;
  ctx_.rng = Pcg32(opts.seed);
  ctx_.pool = opts.pool ? opts.pool : ThreadPool::Shared();
  ctx_.encoder = FindEncoder(opts.encoder);
  LOGR_CHECK_MSG(ctx_.encoder != nullptr, opts.encoder.c_str());
  ctx_.num_features = log.NumFeatures();
  ctx_.vecs.reserve(log.NumDistinct());
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    ctx_.vecs.push_back(log.VectorAt(i));
  }
  ctx_.weights.reserve(log.NumDistinct());
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    ctx_.weights.push_back(static_cast<double>(log.Multiplicity(i)));
  }
  // The one pool per compression: packed straight from the view's id
  // spans (zero copies off an mmap'd log) and shared with every
  // distance / seeding consumer through Request(). Oversized universes
  // skip it and the methods fall back to their merge kernels.
  ctx_.builds_at_start = PackedVecPool::BuildCount();
  if (PackedPoolFits(log.NumDistinct(), ctx_.num_features)) {
    Stopwatch pack_timer;
    ctx_.packed = log.Pack();
    ctx_.has_packed = true;
    pack_seconds_ = pack_timer.ElapsedSeconds();
  }
}

std::vector<int> CompressionPipeline::ClusterStage(std::size_t k) {
  Stopwatch stage;
  std::vector<int> assignment =
      Cluster(ctx_.opts.method, ctx_.vecs, ctx_.weights, ctx_.Request(k));
  cluster_seconds_ += stage.ElapsedSeconds();
  return assignment;
}

LogRSummary CompressionPipeline::EncodeStage(std::vector<int> assignment,
                                             std::size_t k) {
  LogRSummary out;
  out.assignment = std::move(assignment);
  out.model = ctx_.encoder->Encode(
      ctx_.log, out.assignment, EncodeRequestFor(ctx_.opts, k, ctx_.pool));
  out.cluster_seconds = cluster_seconds_;
  out.pack_seconds = pack_seconds_;
  out.pool_builds = PackedVecPool::BuildCount() - ctx_.builds_at_start;
  out.total_seconds = ctx_.timer.ElapsedSeconds();
  return out;
}

LogRSummary CompressionPipeline::RunFixedK() {
  // More clusters than distinct vectors buys nothing and would make the
  // encode stage allocate opts.num_clusters components.
  const std::size_t k =
      std::min(ctx_.opts.num_clusters, ctx_.log.NumDistinct());
  return EncodeStage(ClusterStage(k), k);
}

LogRSummary CompressionPipeline::RunAdaptive(std::size_t num_clusters) {
  const LogView& log = ctx_.log;
  num_clusters = std::min(num_clusters, log.NumDistinct());

  std::vector<int> assignment(log.NumDistinct(), 0);
  std::size_t k = 1;
  std::vector<bool> splittable(1, true);

  while (k < num_clusters) {
    NaiveMixtureEncoding current =
        NaiveMixtureEncoding::FromPartition(log, assignment, k, ctx_.pool);
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

    // Bisect the worst cluster with the configured method.
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
    ClusterRequest req = ctx_.Request(2);
    // The shared pool indexes full-log rows; this request clusters the
    // subset `vecs`, so it must not carry the pool.
    req.packed = nullptr;
    // Each bisection gets a fresh seed from the pipeline's PRNG: the
    // draw order is deterministic, so results are reproducible and
    // independent of the thread count. Separate statements — operand
    // evaluation order within one expression is compiler-specific.
    const std::uint64_t seed_hi = ctx_.rng.Next();
    const std::uint64_t seed_lo = ctx_.rng.Next();
    req.seed = (seed_hi << 32) | seed_lo;
    Stopwatch stage;
    std::vector<int> split = Cluster(ctx_.opts.method, vecs, weights, req);
    cluster_seconds_ += stage.ElapsedSeconds();
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

  return EncodeStage(std::move(assignment), k);
}

}  // namespace logr
