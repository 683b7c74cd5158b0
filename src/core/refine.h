// Feature-correlation refinement of naive encodings (paper Section 6.4).
//
// WC(b, S) = log p(Q ⊇ b) - log ρ_S(Q ⊇ b) measures how badly the naive
// independence assumption mis-estimates pattern b; corr_rank(b) =
// p(Q ⊇ b) · WC(b, S) ranks candidate patterns by expected Error
// reduction. RefinedNaiveEncoding materializes "naive + extra patterns"
// encodings and computes their exact max-ent entropy by factorizing over
// connected components of the pattern-feature graph (features untouched
// by any extra pattern stay independent).
#ifndef LOGR_CORE_REFINE_H_
#define LOGR_CORE_REFINE_H_

#include <vector>

#include "core/naive_encoding.h"
#include "workload/query_log.h"

namespace logr {

/// WC(b, S): log-difference between the true marginal of `b` in `log`
/// and its naive estimate. Returns 0 when either marginal is zero.
double FeatureCorrelation(const QueryLog& log, const NaiveEncoding& enc,
                          const FeatureVec& b);

struct ScoredPattern {
  FeatureVec pattern;
  double marginal = 0.0;
  double corr_rank = 0.0;
};

/// Scores and sorts candidate patterns by descending corr_rank.
std::vector<ScoredPattern> RankPatterns(const QueryLog& log,
                                        const NaiveEncoding& enc,
                                        const std::vector<FeatureVec>& cands);

/// A naive encoding refined with extra multi-feature patterns.
class RefinedNaiveEncoding {
 public:
  /// Builds over `log` with the given extra patterns (their marginals are
  /// measured from the log). Connected components of the pattern graph
  /// whose feature block exceeds `max_block_features` have their
  /// lowest-|corr_rank| patterns dropped until they fit — the same kind
  /// of practical inference ceiling the paper reports for MTV (Sec. 7.2.2).
  RefinedNaiveEncoding(const QueryLog& log,
                       std::vector<FeatureVec> extra_patterns,
                       std::size_t max_block_features = 18);

  /// Exact max-ent entropy of the refined encoding (nats).
  double MaxEntEntropy() const { return maxent_entropy_; }

  /// e(E) = H(ρ_E) - H(ρ*).
  double ReproductionError() const {
    return maxent_entropy_ - empirical_entropy_;
  }

  /// Verbosity: naive features + retained extra patterns.
  std::size_t Verbosity() const { return verbosity_; }

  /// Patterns that survived the block-size ceiling.
  const std::vector<FeatureVec>& retained_patterns() const {
    return retained_;
  }

 private:
  double maxent_entropy_ = 0.0;
  double empirical_entropy_ = 0.0;
  std::size_t verbosity_ = 0;
  std::vector<FeatureVec> retained_;
};

}  // namespace logr

#endif  // LOGR_CORE_REFINE_H_
