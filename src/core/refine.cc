#include "core/refine.h"

#include <algorithm>
#include <cmath>

#include "maxent/factored_model.h"
#include "util/check.h"

namespace logr {

double FeatureCorrelation(const QueryLog& log, const NaiveEncoding& enc,
                          const FeatureVec& b) {
  double truth = log.Marginal(b);
  double est = enc.EstimateMarginal(b);
  if (truth <= 0.0 || est <= 0.0) return 0.0;
  return std::log(truth) - std::log(est);
}

std::vector<ScoredPattern> RankPatterns(
    const QueryLog& log, const NaiveEncoding& enc,
    const std::vector<FeatureVec>& cands) {
  std::vector<ScoredPattern> out;
  out.reserve(cands.size());
  for (const FeatureVec& b : cands) {
    ScoredPattern sp;
    sp.pattern = b;
    sp.marginal = log.Marginal(b);
    sp.corr_rank = sp.marginal * FeatureCorrelation(log, enc, b);
    out.push_back(std::move(sp));
  }
  std::sort(out.begin(), out.end(),
            [](const ScoredPattern& a, const ScoredPattern& b) {
              return a.corr_rank > b.corr_rank;
            });
  return out;
}

RefinedNaiveEncoding::RefinedNaiveEncoding(
    const QueryLog& log, std::vector<FeatureVec> extra_patterns,
    std::size_t max_block_features) {
  NaiveEncoding naive = NaiveEncoding::FromLog(log);
  empirical_entropy_ = naive.EmpiricalEntropy();

  // Priority: descending |corr_rank| (the patterns whose independence
  // violation contributes most Error are kept when the ceiling bites).
  std::vector<ScoredPattern> ranked = RankPatterns(log, naive, extra_patterns);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ScoredPattern& a, const ScoredPattern& b) {
                     return std::fabs(a.corr_rank) > std::fabs(b.corr_rank);
                   });

  std::vector<std::pair<FeatureId, double>> singletons;
  singletons.reserve(naive.features().size());
  for (std::size_t i = 0; i < naive.features().size(); ++i) {
    singletons.emplace_back(naive.features()[i], naive.marginals()[i]);
  }
  std::vector<FactoredMaxEnt::PatternConstraint> constraints;
  constraints.reserve(ranked.size());
  for (const ScoredPattern& sp : ranked) {
    constraints.push_back({sp.pattern, sp.marginal});
  }
  FactoredMaxEnt model(std::move(singletons), std::move(constraints),
                       max_block_features);
  retained_ = model.retained_patterns();
  maxent_entropy_ = model.EntropyNats();
  verbosity_ = naive.Verbosity() + retained_.size();
}

}  // namespace logr
