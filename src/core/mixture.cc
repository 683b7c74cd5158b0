#include "core/mixture.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "cluster/nn_chain.h"
#include "maxent/entropy.h"
#include "util/check.h"

namespace logr {

namespace {

double SafeRatio(std::uint64_t count, std::uint64_t total) {
  return total == 0 ? 0.0
                    : static_cast<double>(count) / static_cast<double>(total);
}

/// Canonical component order: descending log size, then lexicographic
/// support, marginals, and weight. Any two components that compare equal
/// are interchangeable, so sorting by this key makes merges independent
/// of the order their parts arrived in.
bool CanonicalLess(const MixtureComponent& a, const MixtureComponent& b) {
  if (a.encoding.LogSize() != b.encoding.LogSize()) {
    return a.encoding.LogSize() > b.encoding.LogSize();
  }
  if (a.encoding.features() != b.encoding.features()) {
    return a.encoding.features() < b.encoding.features();
  }
  if (a.encoding.marginals() != b.encoding.marginals()) {
    return a.encoding.marginals() < b.encoding.marginals();
  }
  // Distinct member multisets can share support and marginals but differ
  // in entropy — without this tiebreak such components would keep their
  // arrival order and leak the shard order into the result.
  if (a.encoding.EmpiricalEntropy() != b.encoding.EmpiricalEntropy()) {
    return a.encoding.EmpiricalEntropy() < b.encoding.EmpiricalEntropy();
  }
  return a.weight < b.weight;
}

/// Aggregated statistics of a group of components under fusion: enough
/// to evaluate the group's exact weighted-Error contribution (the same
/// math MergeComponents materializes) and to fuse two groups in O(s).
/// Marginals are kept as log-size-weighted sums so the union's marginal
/// is msum / n, and the empirical entropy uses the grouping property —
/// which is associative, so pairwise aggregation equals the flat
/// formula over the original components.
struct MarginalSum {
  FeatureId feature;
  double sum;   // Σ n_i · marginal_i over the group's members
  double lsum;  // cached std::log(sum), refreshed only when sum changes
};

struct ReconcileGroup {
  std::uint64_t n = 0;   // total queries in the group
  double ent = 0.0;      // grouping-entropy estimate of the union
  double cost = 0.0;     // (n / grand_total) * max(0, maxent - ent)
  // Sorted marginal sums over the union support, each carrying its
  // cached log so the FuseDelta scans never recompute it.
  std::vector<MarginalSum> msum;
};

/// BinaryEntropy(min(sum / n, 1)) with the numerator's log precomputed:
/// −p·ln p = −p·(ln sum − ln n), so an evaluation whose sum is unchanged
/// since the group was built costs one log1p instead of two logs.
/// FuseDelta streams two sorted supports and most features live in only
/// one of them — exactly the entries whose cached lsum applies.
double CachedEntropyTerm(double sum, double lsum, double inv, double log_n) {
  const double p = sum * inv;
  if (p <= 0.0 || p >= 1.0) return 0.0;
  return -p * (lsum - log_n) - (1.0 - p) * std::log1p(-p);
}

double ReconcileGroupCost(std::uint64_t n, double ent, double maxent,
                          std::uint64_t grand_total) {
  // Overlapping member populations overestimate the union's entropy
  // (the grouping formula is exact only for disjoint parts); clamp so
  // the cost stays a valid non-negative divergence.
  return SafeRatio(n, grand_total) * std::max(0.0, maxent - ent);
}

ReconcileGroup MakeReconcileGroup(const MixtureComponent& c,
                                  std::uint64_t grand_total) {
  ReconcileGroup g;
  g.n = c.encoding.LogSize();
  g.ent = c.encoding.EmpiricalEntropy();
  const auto& features = c.encoding.features();
  const auto& marginals = c.encoding.marginals();
  g.msum.reserve(features.size());
  const double n = static_cast<double>(g.n);
  double maxent = 0.0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    const double sum = n * marginals[i];
    g.msum.push_back({features[i], sum, sum > 0.0 ? std::log(sum) : 0.0});
    maxent += BinaryEntropy(std::min(marginals[i], 1.0));
  }
  g.cost = ReconcileGroupCost(g.n, g.ent, maxent, grand_total);
  return g;
}

/// Grouping entropy of the fusion of two groups.
double FusedEntropy(const ReconcileGroup& a, const ReconcileGroup& b) {
  const std::uint64_t n = a.n + b.n;
  double ent = 0.0;
  const double sa = SafeRatio(a.n, n);
  const double sb = SafeRatio(b.n, n);
  if (sa > 0.0) ent += sa * a.ent - sa * std::log(sa);
  if (sb > 0.0) ent += sb * b.ent - sb * std::log(sb);
  return ent;
}

/// Error increase of fusing groups `a` and `b` — the reconcile linkage.
/// Allocation-free: the union's max-ent entropy streams over the two
/// sorted supports.
double FuseDelta(const ReconcileGroup& a, const ReconcileGroup& b,
                 std::uint64_t grand_total) {
  const std::uint64_t n = a.n + b.n;
  if (n == 0) return 0.0;
  const double inv = 1.0 / static_cast<double>(n);
  const double log_n = std::log(static_cast<double>(n));
  double maxent = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a.msum.size() && j < b.msum.size()) {
    if (a.msum[i].feature < b.msum[j].feature) {
      const MarginalSum& m = a.msum[i++];
      maxent += CachedEntropyTerm(m.sum, m.lsum, inv, log_n);
    } else if (b.msum[j].feature < a.msum[i].feature) {
      const MarginalSum& m = b.msum[j++];
      maxent += CachedEntropyTerm(m.sum, m.lsum, inv, log_n);
    } else {
      // Shared feature: the fused sum is new, so its log is too.
      const double sum = a.msum[i++].sum + b.msum[j++].sum;
      maxent += CachedEntropyTerm(sum, std::log(sum), inv, log_n);
    }
  }
  for (; i < a.msum.size(); ++i) {
    maxent += CachedEntropyTerm(a.msum[i].sum, a.msum[i].lsum, inv, log_n);
  }
  for (; j < b.msum.size(); ++j) {
    maxent += CachedEntropyTerm(b.msum[j].sum, b.msum[j].lsum, inv, log_n);
  }
  const double fused =
      ReconcileGroupCost(n, FusedEntropy(a, b), maxent, grand_total);
  return fused - a.cost - b.cost;
}

/// Fuses `b` into `a` (the materializing counterpart of FuseDelta).
void FuseInto(ReconcileGroup* a, const ReconcileGroup& b,
              std::uint64_t grand_total) {
  std::vector<MarginalSum> merged;
  merged.reserve(a->msum.size() + b.msum.size());
  const std::uint64_t n = a->n + b.n;
  const double inv = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;
  const double log_n = n > 0 ? std::log(static_cast<double>(n)) : 0.0;
  double maxent = 0.0;
  std::size_t i = 0, j = 0;
  while (i < a->msum.size() && j < b.msum.size()) {
    if (a->msum[i].feature < b.msum[j].feature) {
      merged.push_back(a->msum[i++]);
    } else if (b.msum[j].feature < a->msum[i].feature) {
      merged.push_back(b.msum[j++]);
    } else {
      const double sum = a->msum[i].sum + b.msum[j].sum;
      merged.push_back(
          {a->msum[i].feature, sum, sum > 0.0 ? std::log(sum) : 0.0});
      ++i;
      ++j;
    }
    const MarginalSum& m = merged.back();
    maxent += CachedEntropyTerm(m.sum, m.lsum, inv, log_n);
  }
  for (; i < a->msum.size(); ++i) {
    merged.push_back(a->msum[i]);
    const MarginalSum& m = merged.back();
    maxent += CachedEntropyTerm(m.sum, m.lsum, inv, log_n);
  }
  for (; j < b.msum.size(); ++j) {
    merged.push_back(b.msum[j]);
    const MarginalSum& m = merged.back();
    maxent += CachedEntropyTerm(m.sum, m.lsum, inv, log_n);
  }
  a->ent = FusedEntropy(*a, b);
  a->n = n;
  a->msum = std::move(merged);
  a->cost = ReconcileGroupCost(a->n, a->ent, maxent, grand_total);
}

}  // namespace

NaiveMixtureEncoding NaiveMixtureEncoding::FromPartition(
    const LogView& log, const std::vector<int>& assignment, std::size_t k,
    ThreadPool* pool) {
  LOGR_CHECK(assignment.size() == log.NumDistinct());
  const double total = static_cast<double>(log.TotalQueries());
  LOGR_CHECK(total > 0.0);

  // Serial membership pass (index order fixes the accumulation order),
  // then the per-component encodings build in parallel: each component
  // writes only its own slot, so the schedule never changes a bit.
  std::vector<std::vector<std::size_t>> members(k);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    const std::size_t c = static_cast<std::size_t>(assignment[i]);
    if (c >= k) continue;  // out-of-range labels are ignored, as before
    members[c].push_back(i);
  }

  std::vector<MixtureComponent> slots(k);
  ParallelFor(pool, 0, k, kFineGrain, [&](std::size_t c) {
    if (members[c].empty()) return;  // empty clusters are dropped
    MixtureComponent comp;
    comp.members = std::move(members[c]);
    std::vector<FeatureVec> vecs;
    std::vector<double> weights;
    vecs.reserve(comp.members.size());
    weights.reserve(comp.members.size());
    std::uint64_t count = 0;
    for (std::size_t i : comp.members) {
      vecs.push_back(log.VectorAt(i));
      weights.push_back(static_cast<double>(log.Multiplicity(i)));
      count += log.Multiplicity(i);
    }
    comp.weight = static_cast<double>(count) / total;
    comp.encoding =
        NaiveEncoding::FromWeighted(vecs, weights, log.NumFeatures(), count);
    slots[c] = std::move(comp);
  });

  NaiveMixtureEncoding out;
  out.components_.reserve(k);
  for (std::size_t c = 0; c < k; ++c) {
    if (slots[c].members.empty()) continue;
    out.components_.push_back(std::move(slots[c]));
  }
  return out;
}

NaiveMixtureEncoding NaiveMixtureEncoding::FromComponents(
    std::vector<MixtureComponent> components) {
  NaiveMixtureEncoding out;
  out.components_ = std::move(components);
  return out;
}

namespace {

/// Fuses a group of components into a single component. Exact when the
/// group's members encode disjoint query populations (see the header
/// comment); the fused weight is the group's weight sum and members are
/// unioned in ascending order. For overlapping populations the marginals
/// and counts stay exact, while the entropy estimate is clamped so
/// Reproduction Error remains a non-negative divergence.
MixtureComponent MergeComponents(
    const std::vector<const MixtureComponent*>& group) {
  MixtureComponent out;
  std::uint64_t total = 0;
  for (const MixtureComponent* c : group) {
    LOGR_CHECK(c != nullptr);
    total += c->encoding.LogSize();
    out.weight += c->weight;
  }

  // Marginals: log-size-weighted average, accumulated in group order so
  // the result is deterministic for a deterministic grouping.
  std::unordered_map<FeatureId, double> marginal;
  for (const MixtureComponent* c : group) {
    const double share = SafeRatio(c->encoding.LogSize(), total);
    if (share == 0.0) continue;
    const auto& features = c->encoding.features();
    const auto& values = c->encoding.marginals();
    for (std::size_t i = 0; i < features.size(); ++i) {
      marginal[features[i]] += share * values[i];
    }
  }
  std::vector<FeatureId> features;
  features.reserve(marginal.size());
  // lint:allow no-unordered-iteration (keys only, sorted on the next line)
  for (const auto& [f, p] : marginal) features.push_back(f);
  std::sort(features.begin(), features.end());
  std::vector<double> marginals;
  marginals.reserve(features.size());
  for (FeatureId f : features) marginals.push_back(marginal.at(f));

  // Empirical entropy by the grouping property (exact for disjoint
  // member populations): H(∪L_i) = Σ w_i·H(L_i) − Σ w_i·log w_i.
  double empirical = 0.0;
  for (const MixtureComponent* c : group) {
    const double share = SafeRatio(c->encoding.LogSize(), total);
    if (share <= 0.0) continue;
    empirical += share * c->encoding.EmpiricalEntropy();
    empirical -= share * std::log(share);
  }

  out.encoding = NaiveEncoding::FromMarginals(
      std::move(features), std::move(marginals), empirical, total);
  if (out.encoding.EmpiricalEntropy() > out.encoding.MaxEntEntropy()) {
    // The grouping formula is exact only for disjoint member
    // populations; an offline merge of overlapping summaries (shared
    // templates across days) overestimates the union's entropy. Clamp
    // to the max-ent entropy so Reproduction Error stays a valid
    // non-negative divergence — marginals and counts are exact either
    // way.
    out.encoding = NaiveEncoding::FromMarginals(
        out.encoding.features(), out.encoding.marginals(),
        out.encoding.MaxEntEntropy(), total);
  }
  for (const MixtureComponent* c : group) {
    out.members.insert(out.members.end(), c->members.begin(),
                       c->members.end());
  }
  std::sort(out.members.begin(), out.members.end());
  return out;
}

}  // namespace

NaiveMixtureEncoding NaiveMixtureEncoding::Merge(
    const std::vector<const NaiveMixtureEncoding*>& parts) {
  std::uint64_t total = 0;
  std::size_t count = 0;
  for (const NaiveMixtureEncoding* part : parts) {
    LOGR_CHECK(part != nullptr);
    total += part->LogSize();
    count += part->NumComponents();
  }
  std::vector<MixtureComponent> pooled;
  pooled.reserve(count);
  for (const NaiveMixtureEncoding* part : parts) {
    for (std::size_t c = 0; c < part->NumComponents(); ++c) {
      MixtureComponent comp = part->Component(c);
      comp.weight = SafeRatio(comp.encoding.LogSize(), total);
      pooled.push_back(std::move(comp));
    }
  }
  std::stable_sort(pooled.begin(), pooled.end(), CanonicalLess);
  return FromComponents(std::move(pooled));
}

NaiveMixtureEncoding NaiveMixtureEncoding::Reconcile(std::size_t k,
                                                     ThreadPool* pool) const {
  LOGR_CHECK(k >= 1);
  const std::size_t count = components_.size();
  if (count <= k) return *this;

  // Nearest-component-chain agglomeration with exact fused-error
  // linkage: the "distance" between two groups is the increase in the
  // mixture's weighted Error caused by fusing them (FuseDelta — the
  // closed form the former greedy polish evaluated per move), and the
  // NN-chain merges reciprocal nearest pairs until k groups remain.
  // Matrix-free and cache-accelerated: each slot keeps its cached
  // nearest plus the merge epoch it was validated at; a nearest() query
  // first replays the merges logged since that epoch (comparing the
  // fresh linkage to each surviving merged group — the fused-error
  // linkage can shrink, unlike Lance-Williams distances) and only falls
  // back to a full chunked scan when the cached partner itself merged.
  // No component-count ceiling — thousand-shard merges reconcile in one
  // shot where the former O(P·K)-per-pass polish was capped at 1024.
  // Deterministic for any pool size: the pooled components arrive in
  // canonical order, scan reductions are serial in index order, and
  // ties break on the smaller index.
  const std::uint64_t total = LogSize();
  std::vector<ReconcileGroup> groups;
  groups.reserve(count);
  std::vector<std::vector<const MixtureComponent*>> members(count);
  for (std::size_t i = 0; i < count; ++i) {
    groups.push_back(MakeReconcileGroup(components_[i], total));
    members[i].push_back(&components_[i]);
  }

  // Chain walk, active-slot list, and deterministic chunked argmin come
  // from cluster/nn_chain.h (shared with the hierarchical fit); the
  // fused-error linkage scans in smaller chunks because one FuseDelta
  // costs far more than one matrix read.
  NNChainScan scan(count, /*scan_chunk=*/64, pool);

  constexpr std::size_t kNone = NNChainScan::kNone;
  std::vector<std::size_t> cached_arg(count, kNone);
  std::vector<double> cached_delta(count, 0.0);
  std::vector<std::size_t> cached_epoch(count, 0);
  // Surviving slot of every merge so far, in merge order.
  std::vector<std::size_t> merge_log;
  merge_log.reserve(count);

  auto nearest = [&](std::size_t a) {
    if (cached_arg[a] != kNone && scan.IsActive(cached_arg[a])) {
      // Catch up on merges since validation. If the cached partner
      // itself re-merged, its recorded linkage is stale in an unknown
      // direction — fall through to a full rescan. Otherwise every
      // unchanged slot still sits at or above the cached minimum, so
      // folding in the merged groups' fresh linkages is exact.
      bool stale = false;
      std::size_t arg = cached_arg[a];
      double best = cached_delta[a];
      for (std::size_t e = cached_epoch[a]; e < merge_log.size(); ++e) {
        const std::size_t m = merge_log[e];
        if (m == cached_arg[a]) {
          stale = true;
          break;
        }
        if (!scan.IsActive(m) || m == a) continue;
        const double nd = FuseDelta(groups[a], groups[m], total);
        if (nd < best || (nd == best && m < arg)) {
          best = nd;
          arg = m;
        }
      }
      if (!stale) {
        cached_arg[a] = arg;
        cached_delta[a] = best;
        cached_epoch[a] = merge_log.size();
        return std::make_pair(arg, best);
      }
    }
    const std::vector<std::uint32_t>& list = scan.slots();
    const std::pair<std::size_t, double> found =
        scan.Argmin(a, [&](std::size_t lo, std::size_t hi) {
          double best = std::numeric_limits<double>::max();
          std::size_t arg = kNone;
          for (std::size_t p = lo; p < hi; ++p) {
            const std::size_t j = list[p];
            if (j == a) continue;
            const double delta = FuseDelta(groups[a], groups[j], total);
            if (delta < best) {
              best = delta;
              arg = j;
            }
          }
          return std::make_pair(best, arg);
        });
    cached_arg[a] = found.first;
    cached_delta[a] = found.second;
    cached_epoch[a] = merge_log.size();
    return found;
  };

  auto merge = [&](std::size_t a, std::size_t b, double /*delta_ab*/) {
    FuseInto(&groups[a], groups[b], total);
    members[a].insert(members[a].end(), members[b].begin(),
                      members[b].end());
    members[b].clear();
    groups[b] = ReconcileGroup();
    cached_arg[a] = kNone;
    merge_log.push_back(a);
  };

  // Fused-error linkage is not reducible (a fusion can move the merged
  // group closer to a chain predecessor than its recorded successor),
  // so the driver restarts the chain after every merge — the caches
  // carry over, so rebuilding costs O(1) per step, and the restart
  // point is deterministic.
  NNChainAgglomerate(scan, k, /*reducible=*/false, nearest, merge);

  std::vector<MixtureComponent> fused;
  fused.reserve(k);
  for (std::size_t i = 0; i < count; ++i) {
    if (members[i].empty()) continue;
    MixtureComponent comp = MergeComponents(members[i]);
    comp.weight = SafeRatio(comp.encoding.LogSize(), total);
    fused.push_back(std::move(comp));
  }
  std::stable_sort(fused.begin(), fused.end(), CanonicalLess);
  return FromComponents(std::move(fused));
}

double NaiveMixtureEncoding::Error() const {
  double e = 0.0;
  for (const auto& c : components_) {
    e += c.weight * c.encoding.ReproductionError();
  }
  return e;
}

std::size_t NaiveMixtureEncoding::TotalVerbosity() const {
  std::size_t v = 0;
  for (const auto& c : components_) v += c.encoding.Verbosity();
  return v;
}

double NaiveMixtureEncoding::EstimateCount(const FeatureVec& b) const {
  double acc = 0.0;
  for (const auto& c : components_) acc += c.encoding.EstimateCount(b);
  return acc;
}

double NaiveMixtureEncoding::EstimateMarginal(const FeatureVec& b) const {
  double acc = 0.0;
  for (const auto& c : components_) {
    acc += c.weight * c.encoding.EstimateMarginal(b);
  }
  return acc;
}

std::uint64_t NaiveMixtureEncoding::LogSize() const {
  std::uint64_t total = 0;
  for (const auto& c : components_) total += c.encoding.LogSize();
  return total;
}

}  // namespace logr
