#include "core/pattern_encoding.h"

#include "util/check.h"

namespace logr {

PatternEncoding::PatternEncoding(const QueryLog& log,
                                 std::vector<FeatureVec> patterns)
    : patterns_(std::move(patterns)) {
  LOGR_CHECK_MSG(patterns_.size() <= kMaxPatterns,
                 "PatternEncoding materializes the 2^m signature lattice "
                 "and supports at most kMaxPatterns patterns");
  log_size_ = log.TotalQueries();
  empirical_entropy_ = log.EmpiricalEntropy();
  marginals_.reserve(patterns_.size());
  for (const FeatureVec& b : patterns_) {
    marginals_.push_back(log.Marginal(b));
  }
  space_ = std::make_unique<SignatureSpace>(patterns_, log.NumFeatures());
  model_ = std::make_unique<MaxEntModel>(space_.get(), marginals_);
}

PatternEncoding::PatternEncoding(std::vector<FeatureVec> patterns,
                                 std::vector<double> marginals,
                                 std::size_t n_features,
                                 double empirical_entropy,
                                 std::uint64_t log_size)
    : patterns_(std::move(patterns)),
      marginals_(std::move(marginals)),
      empirical_entropy_(empirical_entropy),
      log_size_(log_size) {
  LOGR_CHECK_MSG(patterns_.size() <= kMaxPatterns,
                 "PatternEncoding materializes the 2^m signature lattice "
                 "and supports at most kMaxPatterns patterns");
  LOGR_CHECK(patterns_.size() == marginals_.size());
  space_ = std::make_unique<SignatureSpace>(patterns_, n_features);
  model_ = std::make_unique<MaxEntModel>(space_.get(), marginals_);
}

}  // namespace logr
