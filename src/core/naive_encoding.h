// Naive encodings (paper Sections 3.2 and 6).
//
// A naive encoding stores one marginal per feature and assumes feature
// independence; its max-ent representative has the closed form
// ρ_E(q) = Π_i p(X_i = x_i) (Eq. 1), so Reproduction Error, marginal
// estimation and workload statistics are all O(#features) — which is the
// paper's core argument for naive mixture encodings.
#ifndef LOGR_CORE_NAIVE_ENCODING_H_
#define LOGR_CORE_NAIVE_ENCODING_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "workload/query_log.h"

namespace logr {

class NaiveEncoding {
 public:
  NaiveEncoding() = default;

  /// Builds the naive encoding of `log` (typically one cluster's
  /// partition): per-feature marginals plus the cached entropies.
  static NaiveEncoding FromLog(const QueryLog& log);

  /// Builds from explicit (vector, weight) pairs over an n-feature
  /// universe; weights are normalized internally.
  static NaiveEncoding FromWeighted(const std::vector<FeatureVec>& vecs,
                                    const std::vector<double>& weights,
                                    std::size_t n_features,
                                    std::uint64_t total_count);

  /// Reconstructs an encoding from stored state (deserialization, merged
  /// id spaces). `features` may come in any order; they are put in
  /// ascending order with their marginals before the max-ent entropy is
  /// summed from them. The empirical entropy cannot be derived from a
  /// lossy summary and must be given.
  static NaiveEncoding FromMarginals(std::vector<FeatureId> features,
                                     std::vector<double> marginals,
                                     double empirical_entropy,
                                     std::uint64_t log_size);

  /// Verbosity |E|: number of features with non-zero marginal
  /// (Sec. 2.3.1 / 5.2).
  std::size_t Verbosity() const { return features_.size(); }

  /// Marginal p(X_f = 1 | L); 0 for features absent from the partition.
  double Marginal(FeatureId f) const;

  /// Features with non-zero marginal, ascending.
  const std::vector<FeatureId>& features() const { return features_; }
  const std::vector<double>& marginals() const { return marginals_; }

  /// Entropy of the max-ent (independent) representative:
  /// H(ρ_E) = Σ_f h(p_f).
  double MaxEntEntropy() const { return maxent_entropy_; }

  /// Entropy of the true partition distribution H(ρ*).
  double EmpiricalEntropy() const { return empirical_entropy_; }

  /// Reproduction Error e(E) = H(ρ_E) - H(ρ*) (Sec. 4.1).
  double ReproductionError() const {
    return maxent_entropy_ - empirical_entropy_;
  }

  /// Number of queries |L| in the encoded partition.
  std::uint64_t LogSize() const { return log_size_; }

  /// Estimated marginal p(Q ⊇ b) under independence: Π_{f∈b} p_f.
  double EstimateMarginal(const FeatureVec& b) const;

  /// Estimated count est[Γ_b(L) | E] = |L| · Π_{f∈b} p_f (Sec. 6.2).
  double EstimateCount(const FeatureVec& b) const {
    return static_cast<double>(log_size_) * EstimateMarginal(b);
  }

 private:
  std::vector<FeatureId> features_;
  std::vector<double> marginals_;
  std::unordered_map<FeatureId, double> marginal_by_id_;
  double maxent_entropy_ = 0.0;
  double empirical_entropy_ = 0.0;
  std::uint64_t log_size_ = 0;
};

}  // namespace logr

#endif  // LOGR_CORE_NAIVE_ENCODING_H_
