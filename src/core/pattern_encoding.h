// General pattern-based encodings (paper Section 2.3.1).
//
// A pattern encoding maps arbitrary patterns to their marginals. Its
// max-ent representative has no closed form; it is fitted by iterative
// scaling over the containment-equivalence lattice (maxent/). This is the
// encoding family produced by Laserlight and MTV when used as log
// summarizers (Sec. 7.2, Fig. 5b).
#ifndef LOGR_CORE_PATTERN_ENCODING_H_
#define LOGR_CORE_PATTERN_ENCODING_H_

#include <memory>
#include <vector>

#include "maxent/scaling.h"
#include "maxent/signature_space.h"
#include "workload/query_log.h"

namespace logr {

class PatternEncoding {
 public:
  /// Hard ceiling on the pattern count: the signature lattice's own cap
  /// (fitting materializes all 2^m classes). The constructor aborts
  /// (LOGR_CHECK) on violation — callers that select patterns (e.g. the
  /// "pattern" encoder) must cap at this bound.
  static constexpr std::size_t kMaxPatterns = SignatureSpace::kMaxPatterns;

  /// Builds the encoding of `patterns` with marginals measured on `log`,
  /// over the log's full feature universe, and fits the max-ent model.
  /// Aborts with a diagnostic when patterns.size() > kMaxPatterns.
  PatternEncoding(const QueryLog& log, std::vector<FeatureVec> patterns);

  /// Rebuilds an encoding from its serialized state — the patterns, the
  /// marginals that were measured on the (absent) log, the feature
  /// universe width, and the stored empirical entropy and log size — and
  /// refits the max-ent representative by iterative scaling. Feeding
  /// back exactly what the first constructor measured reproduces its
  /// model bit for bit: the fit is a deterministic function of
  /// (patterns, marginals, n_features).
  PatternEncoding(std::vector<FeatureVec> patterns,
                  std::vector<double> marginals, std::size_t n_features,
                  double empirical_entropy, std::uint64_t log_size);

  std::size_t Verbosity() const { return patterns_.size(); }
  const std::vector<FeatureVec>& patterns() const { return patterns_; }
  const std::vector<double>& marginals() const { return marginals_; }

  /// H(ρ_E) of the fitted max-ent representative (nats).
  double MaxEntEntropy() const { return model_->EntropyNats(); }

  /// H(ρ*) of the encoded partition (measured at construction, carried
  /// verbatim through serialization so Reproduction Error survives a
  /// disk round trip).
  double EmpiricalEntropy() const { return empirical_entropy_; }

  /// Width of the feature universe the signature lattice was built
  /// over (the encoded log's NumFeatures()).
  std::size_t NumFeatures() const { return space_->num_features(); }

  /// Reproduction Error e(E) = H(ρ_E) - H(ρ*).
  double ReproductionError() const {
    return MaxEntEntropy() - empirical_entropy_;
  }

  /// Model marginal of an arbitrary pattern.
  double EstimateMarginal(const FeatureVec& b) const {
    return model_->MarginalOf(b);
  }

  /// Estimated count est[Γ_b(L) | E].
  double EstimateCount(const FeatureVec& b) const {
    return static_cast<double>(log_size_) * EstimateMarginal(b);
  }

  /// Number of queries |L| in the encoded partition.
  std::uint64_t LogSize() const { return log_size_; }

  const MaxEntModel& model() const { return *model_; }

 private:
  std::vector<FeatureVec> patterns_;
  std::vector<double> marginals_;
  std::unique_ptr<SignatureSpace> space_;
  std::unique_ptr<MaxEntModel> model_;
  double empirical_entropy_ = 0.0;
  std::uint64_t log_size_ = 0;
};

}  // namespace logr

#endif  // LOGR_CORE_PATTERN_ENCODING_H_
