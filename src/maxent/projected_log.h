// Projection of a query log onto a feature subset.
//
// The paper's validation experiments (Sec. 7.1) project the query
// distribution onto a limited feature set ("we first select all features
// with marginals in the range [0.01, 0.99]"), and Laserlight is restricted
// to 100 features (Sec. 7.2.2 / App. D.1). ProjectedLog renumbers a chosen
// feature subset to a compact universe [0, k) and merges distinct queries
// that become identical under the projection.
#ifndef LOGR_MAXENT_PROJECTED_LOG_H_
#define LOGR_MAXENT_PROJECTED_LOG_H_

#include <cstdint>
#include <vector>

#include "workload/query_log.h"

namespace logr {

class ProjectedLog {
 public:
  /// Projects `log` onto `keep` (original feature ids; order defines the
  /// new ids 0..keep.size()-1).
  ProjectedLog(const QueryLog& log, const std::vector<FeatureId>& keep);

  /// Projects an explicit weighted collection (used by the alternative-
  /// application datasets that never existed as QueryLogs).
  ProjectedLog(const std::vector<FeatureVec>& vecs,
               const std::vector<double>& weights, std::size_t n_features);

  std::size_t num_features() const { return n_features_; }
  std::size_t num_distinct() const { return vecs_.size(); }
  const FeatureVec& Vector(std::size_t i) const { return vecs_[i]; }
  /// Probability mass of distinct projected vector i (sums to 1).
  double Probability(std::size_t i) const { return probs_[i]; }

  /// Empirical entropy of the projected distribution (nats).
  double EmpiricalEntropy() const;

  /// Empirical marginal p(Q ⊇ b) in the projected space.
  double Marginal(const FeatureVec& b) const;

  /// Features with marginal in [lo, hi] — the paper's Sec. 7.1 filter.
  static std::vector<FeatureId> SelectFeaturesInBand(const QueryLog& log,
                                                     double lo, double hi);

 private:
  void Normalize();

  std::size_t n_features_ = 0;
  std::vector<FeatureVec> vecs_;
  std::vector<double> probs_;
};

}  // namespace logr

#endif  // LOGR_MAXENT_PROJECTED_LOG_H_
