#include "core/encoder.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/itemsets.h"
#include "core/pattern_encoding.h"
#include "core/pattern_model.h"
#include "core/refine.h"
#include "util/check.h"

namespace logr {

namespace {

/// Per-component budget the "refined" encoder uses when the request
/// leaves refine_patterns at 0 (an explicitly selected refined encoder
/// should refine, not silently degenerate to naive).
constexpr std::size_t kDefaultRefinePatterns = 4;

/// Per-component pattern count the "pattern" encoder uses when the
/// request leaves pattern_budget at 0. 2^budget lattice classes are
/// materialized per component, so the default stays well under
/// PatternEncoding::kMaxPatterns.
constexpr std::size_t kDefaultPatternBudget = 8;

/// Practical per-component ceiling for the "pattern" encoder (shared
/// with ReadSummary's plausibility bound — see the constant's comment).
constexpr std::size_t kMaxEncoderPatterns =
    PatternMixtureModel::kMaxServablePatterns;

/// Apriori candidate cap the refined miner passes as max_results: no
/// component can retain more patterns than the miner ever surfaces.
constexpr std::size_t kRefineCandidateCap = 256;

/// The request's worker pool: nullptr selects ThreadPool::Shared(), as
/// EncodeRequest documents (the lower-level FromPartition,
/// RefineMixture and ParallelFor read nullptr as serial).
ThreadPool* PoolFor(const EncodeRequest& req) {
  return req.pool ? req.pool : ThreadPool::Shared();
}

/// Member index lists per component of a [0, k) assignment.
std::vector<std::vector<std::size_t>> MembersByComponent(
    const std::vector<int>& assignment, std::size_t k) {
  std::vector<std::vector<std::size_t>> members(k);
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    LOGR_CHECK(assignment[i] >= 0 &&
               static_cast<std::size_t>(assignment[i]) < k);
    members[assignment[i]].push_back(i);
  }
  return members;
}

/// Mines + ranks up to `budget` corr_rank patterns for one component
/// (the Sec. 6.4 refinement step shared by the refined encoder).
std::vector<FeatureVec> SelectRefinementPatterns(const QueryLog& sublog,
                                                 const NaiveEncoding& enc,
                                                 std::size_t budget) {
  std::vector<double> row_weights;
  row_weights.reserve(sublog.NumDistinct());
  for (std::size_t i = 0; i < sublog.NumDistinct(); ++i) {
    row_weights.push_back(static_cast<double>(sublog.Multiplicity(i)));
  }
  AprioriOptions mine;
  mine.min_size = 2;  // singletons are already naive marginals
  mine.max_size = 4;
  mine.max_results = kRefineCandidateCap;
  std::vector<FeatureVec> candidates;
  for (FrequentItemset& fi : MineFrequentItemsets(sublog.DistinctVectors(),
                                                  row_weights, mine)) {
    candidates.push_back(std::move(fi.items));
  }
  std::vector<ScoredPattern> ranked = RankPatterns(sublog, enc, candidates);
  // Both corr_rank signs mark independence violations (naive under- or
  // over-estimates); keep the largest magnitudes, matching
  // RefinedNaiveEncoding's own retention priority.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ScoredPattern& a, const ScoredPattern& b) {
                     return std::fabs(a.corr_rank) > std::fabs(b.corr_rank);
                   });
  std::vector<FeatureVec> extra;
  for (const ScoredPattern& sp : ranked) {
    if (extra.size() >= budget) break;
    if (std::fabs(sp.corr_rank) <= 1e-12) break;  // the rest buy nothing
    extra.push_back(sp.pattern);
  }
  return extra;
}

// ----------------------------------------------------------------- naive

class NaiveEncoder : public Encoder {
 public:
  const char* Name() const override { return "naive"; }
  bool Mergeable() const override { return true; }

  std::shared_ptr<const WorkloadModel> Encode(
      const LogView& log, const std::vector<int>& assignment,
      const EncodeRequest& req) const override {
    return std::make_shared<NaiveMixtureModel>(
        NaiveMixtureEncoding::FromPartition(log, assignment, req.k,
                                            PoolFor(req)));
  }

  std::shared_ptr<const WorkloadModel> WrapMixture(
      const LogView& /*log*/, NaiveMixtureEncoding mixture,
      const EncodeRequest& /*req*/) const override {
    return std::make_shared<NaiveMixtureModel>(std::move(mixture));
  }
};

// --------------------------------------------------------------- refined

class RefinedEncoder : public Encoder {
 public:
  const char* Name() const override { return "refined"; }
  bool Mergeable() const override { return true; }

  std::shared_ptr<const WorkloadModel> Encode(
      const LogView& log, const std::vector<int>& assignment,
      const EncodeRequest& req) const override {
    return WrapMixture(log,
                       NaiveMixtureEncoding::FromPartition(log, assignment,
                                                           req.k,
                                                           PoolFor(req)),
                       req);
  }

  std::shared_ptr<const WorkloadModel> WrapMixture(
      const LogView& log, NaiveMixtureEncoding mixture,
      const EncodeRequest& req) const override {
    const std::size_t budget =
        req.refine_patterns > 0 ? req.refine_patterns : kDefaultRefinePatterns;
    return RefineMixture(log, std::move(mixture), budget, PoolFor(req));
  }
};

// --------------------------------------------------------------- pattern

class PatternEncoder : public Encoder {
 public:
  const char* Name() const override { return "pattern"; }

  std::shared_ptr<const WorkloadModel> Encode(
      const LogView& log, const std::vector<int>& assignment,
      const EncodeRequest& req) const override {
    // Selection is capped below the lattice-materialization ceiling:
    // PatternEncoding hard-errors above kMaxPatterns, and fit cost is
    // exponential in the pattern count, so the encoder clamps
    // over-budget requests instead of aborting (or crawling).
    static_assert(kMaxEncoderPatterns <= PatternEncoding::kMaxPatterns,
                  "encoder ceiling must respect the lattice hard cap");
    const std::size_t budget = std::min(
        req.pattern_budget > 0 ? req.pattern_budget : kDefaultPatternBudget,
        kMaxEncoderPatterns);
    const std::vector<std::vector<std::size_t>> members =
        MembersByComponent(assignment, req.k);
    const double total = static_cast<double>(log.TotalQueries());

    // Component fits are independent (each mines and scales only its own
    // sub-log), so they fan out across the request's pool into disjoint
    // index-addressed slots — bit-identical for any thread count. The
    // slots hold pointers because PatternEncoding has no empty state to
    // pre-size a vector with.
    std::vector<std::unique_ptr<PatternMixtureModel::Component>> fitted(
        req.k);
    auto fit_component = [&](std::size_t c) {
      // Per-component mining needs an owning sub-log either way; the
      // full log itself is never materialized.
      QueryLog sublog = log.MaterializeSubset(members[c]);
      const double weight =
          total > 0.0 ? static_cast<double>(sublog.TotalQueries()) / total
                      : 0.0;
      fitted[c] = std::make_unique<PatternMixtureModel::Component>(
          weight, PatternEncoding(sublog, SelectPatterns(sublog, budget)));
    };
    ParallelFor(PoolFor(req), 0, req.k, kCoarseGrain, fit_component);
    std::vector<PatternMixtureModel::Component> components;
    components.reserve(req.k);
    for (std::size_t c = 0; c < req.k; ++c) {
      components.push_back(std::move(*fitted[c]));
    }
    return std::make_shared<PatternMixtureModel>(std::move(components),
                                                 log.TotalQueries());
  }

 private:
  /// Top-`budget` frequent itemsets of the component (singletons
  /// included: they are the pattern-encoding analogue of naive
  /// marginals). Deterministic: the miner orders by support desc, size
  /// desc, then lexicographically.
  static std::vector<FeatureVec> SelectPatterns(const QueryLog& sublog,
                                                std::size_t budget) {
    std::vector<double> row_weights;
    row_weights.reserve(sublog.NumDistinct());
    for (std::size_t i = 0; i < sublog.NumDistinct(); ++i) {
      row_weights.push_back(static_cast<double>(sublog.Multiplicity(i)));
    }
    AprioriOptions mine;
    mine.min_size = 1;
    mine.max_size = 4;
    mine.min_support = 0.05;
    mine.max_results = std::max<std::size_t>(4 * budget, 32);
    std::vector<FeatureVec> patterns;
    for (FrequentItemset& fi : MineFrequentItemsets(
             sublog.DistinctVectors(), row_weights, mine)) {
      if (patterns.size() >= budget) break;
      patterns.push_back(std::move(fi.items));
    }
    if (!patterns.empty() || sublog.TotalQueries() == 0) return patterns;
    // Extremely diffuse component: nothing reaches 5% support. Fall back
    // to the highest-mass single features so the encoding is never empty.
    std::map<FeatureId, double> mass;
    for (std::size_t i = 0; i < sublog.NumDistinct(); ++i) {
      for (FeatureId f : sublog.Vector(i).ids) {
        mass[f] += static_cast<double>(sublog.Multiplicity(i));
      }
    }
    std::vector<std::pair<double, FeatureId>> ranked;
    ranked.reserve(mass.size());
    for (const auto& [f, m] : mass) ranked.emplace_back(m, f);
    std::sort(ranked.begin(), ranked.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    for (const auto& [m, f] : ranked) {
      if (patterns.size() >= budget) break;
      patterns.push_back(FeatureVec({f}));
    }
    return patterns;
  }
};

}  // namespace

// ----------------------------------------------------- NaiveMixtureModel

double NaiveMixtureModel::ComponentWeight(std::size_t i) const {
  return mixture_.Component(i).weight;
}

std::uint64_t NaiveMixtureModel::ComponentLogSize(std::size_t i) const {
  return mixture_.Component(i).encoding.LogSize();
}

std::size_t NaiveMixtureModel::ComponentVerbosity(std::size_t i) const {
  return mixture_.Component(i).encoding.Verbosity();
}

double NaiveMixtureModel::ComponentError(std::size_t i) const {
  return mixture_.Component(i).encoding.ReproductionError();
}

std::vector<FeatureId> NaiveMixtureModel::ComponentFeatures(
    std::size_t i) const {
  return mixture_.Component(i).encoding.features();
}

double NaiveMixtureModel::ComponentMarginal(std::size_t i,
                                            FeatureId f) const {
  return mixture_.Component(i).encoding.Marginal(f);
}

// --------------------------------------------------- RefinedMixtureModel

RefinedMixtureModel::RefinedMixtureModel(
    NaiveMixtureEncoding mixture,
    std::vector<std::vector<FeatureVec>> patterns,
    std::vector<double> component_errors)
    : NaiveMixtureModel(std::move(mixture)),
      patterns_(std::move(patterns)),
      component_errors_(std::move(component_errors)) {
  LOGR_CHECK(patterns_.size() == NumComponents());
  LOGR_CHECK(component_errors_.size() == NumComponents());
  for (std::size_t c = 0; c < component_errors_.size(); ++c) {
    refined_error_ += ComponentWeight(c) * component_errors_[c];
  }
}

std::size_t RefinedMixtureModel::TotalVerbosity() const {
  std::size_t v = NaiveMixtureModel::TotalVerbosity();
  for (const std::vector<FeatureVec>& p : patterns_) v += p.size();
  return v;
}

std::size_t RefinedMixtureModel::ComponentVerbosity(std::size_t i) const {
  return NaiveMixtureModel::ComponentVerbosity(i) + patterns_[i].size();
}

std::vector<FeatureVec> RefinedMixtureModel::ComponentPatterns(
    std::size_t i) const {
  return patterns_[i];
}

// ----------------------------------------------------------- RefineMixture

std::shared_ptr<const RefinedMixtureModel> RefineMixture(
    const LogView& log, NaiveMixtureEncoding mixture, std::size_t budget,
    ThreadPool* pool) {
  std::vector<std::vector<FeatureVec>> retained(mixture.NumComponents());
  std::vector<double> errors(mixture.NumComponents(), 0.0);
  // Every component is an independent mine + rank + max-ent fit writing
  // only its own retained[c] / errors[c] slot, so the loop fans out
  // across the pool (coarse: one component is whole milliseconds of
  // work) with bit-identical results for any thread count.
  auto refine_component = [&](std::size_t c) {
    const MixtureComponent& comp = mixture.Component(c);
    const double naive_err = comp.encoding.ReproductionError();
    errors[c] = naive_err;
    if (comp.members.size() < 2 || naive_err <= 1e-12 || budget == 0) {
      return;
    }
    QueryLog sublog = log.MaterializeSubset(comp.members);
    std::vector<FeatureVec> extra =
        SelectRefinementPatterns(sublog, comp.encoding, budget);
    if (extra.empty()) return;
    RefinedNaiveEncoding ref(sublog, std::move(extra));
    // Refinement with exact marginals can only tighten the max-ent model,
    // but guard against numerical jitter on near-zero errors.
    errors[c] = std::min(naive_err, ref.ReproductionError());
    retained[c] = ref.retained_patterns();
  };
  ParallelFor(pool, 0, mixture.NumComponents(), kCoarseGrain,
              refine_component);
  return std::make_shared<RefinedMixtureModel>(
      std::move(mixture), std::move(retained), std::move(errors));
}

// ------------------------------------------------------------ base class

std::shared_ptr<const WorkloadModel> Encoder::WrapMixture(
    const LogView& /*log*/, NaiveMixtureEncoding /*mixture*/,
    const EncodeRequest& /*req*/) const {
  LOGR_CHECK_MSG(false, Name());  // non-mergeable encoder cannot wrap
  return nullptr;
}

// -------------------------------------------------------------- registry

EncoderRegistry::EncoderRegistry() {
  auto add = [this](const std::shared_ptr<Encoder>& e) {
    Register(e->Name(), e);
  };
  add(std::make_shared<NaiveEncoder>());
  add(std::make_shared<RefinedEncoder>());
  add(std::make_shared<PatternEncoder>());
}

EncoderRegistry& EncoderRegistry::Instance() {
  static EncoderRegistry* registry = new EncoderRegistry();
  return *registry;
}

std::size_t MaxRefinedPatternsPerComponent(std::size_t n_features) {
  // The miner only emits multi-feature (size >= 2) subsets, of which an
  // n-feature universe has 2^n - n - 1 distinct ones; past n = 8 the
  // candidate cap is the tighter bound, so the shift never overflows.
  if (n_features >= 9) return kRefineCandidateCap;
  const std::size_t subsets = std::size_t{1} << n_features;
  const std::size_t multi =
      subsets > n_features + 1 ? subsets - n_features - 1 : 0;
  return std::min(kRefineCandidateCap, multi);
}

}  // namespace logr
