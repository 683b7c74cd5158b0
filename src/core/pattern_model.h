// The "pattern" encoder's WorkloadModel: a mixture of general pattern
// encodings (Sec. 2.3.1 / 7.2), one fitted max-ent lattice per
// component.
//
// Promoted out of the encoder's implementation file so serialization
// can reach the concrete components: a pattern summary persists as its
// per-component (weight, |L_i|, H(ρ*), feature-universe width) header
// plus every pattern with the marginal that was measured on the log,
// and ReadSummary rebuilds each component by refitting the max-ent
// model with iterative scaling over exactly those inputs — a
// deterministic fit, so a disk round trip reproduces every estimate bit
// for bit without the original log.
#ifndef LOGR_CORE_PATTERN_MODEL_H_
#define LOGR_CORE_PATTERN_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/encoder.h"
#include "core/pattern_encoding.h"

namespace logr {

class PatternMixtureModel : public WorkloadModel {
 public:
  /// Practical per-component ceiling for servable pattern encodings:
  /// iterative scaling costs O(iterations · m · 2^m) per component, so
  /// while PatternEncoding accepts up to kMaxPatterns, fits beyond
  /// 2^12 classes take minutes — past the paper's own m <= 15 inference
  /// ceiling for MTV (Sec. 7.2.2). The "pattern" encoder clamps
  /// requests here, and ReadSummary uses the same bound to reject
  /// implausible pattern-component blocks (every file WriteSummary
  /// produces stays loadable, and a hostile file cannot demand an
  /// exponential refit).
  static constexpr std::size_t kMaxServablePatterns = 12;

  struct Component {
    double weight = 0.0;
    PatternEncoding encoding;
    Component(double w, PatternEncoding enc)
        : weight(w), encoding(std::move(enc)) {}
  };

  PatternMixtureModel(std::vector<Component> components,
                      std::uint64_t log_size);

  const char* EncoderName() const override { return "pattern"; }
  double Error() const override;
  std::size_t TotalVerbosity() const override;
  std::size_t NumComponents() const override { return components_.size(); }
  std::uint64_t LogSize() const override { return log_size_; }
  double EstimateMarginal(const FeatureVec& b) const override;
  double EstimateCount(const FeatureVec& b) const override;
  double ComponentWeight(std::size_t i) const override;
  std::uint64_t ComponentLogSize(std::size_t i) const override;
  std::size_t ComponentVerbosity(std::size_t i) const override;
  double ComponentError(std::size_t i) const override;
  std::vector<FeatureId> ComponentFeatures(std::size_t i) const override;
  double ComponentMarginal(std::size_t i, FeatureId f) const override;
  std::vector<FeatureVec> ComponentPatterns(std::size_t i) const override;
  const PatternMixtureModel* AsPatternMixture() const override {
    return this;
  }

  /// Serialization's view of component i's concrete encoding (patterns,
  /// measured marginals, empirical entropy, universe width).
  const PatternEncoding& ComponentEncoding(std::size_t i) const {
    return components_[i].encoding;
  }

 private:
  std::vector<Component> components_;
  std::uint64_t log_size_ = 0;
};

}  // namespace logr

#endif  // LOGR_CORE_PATTERN_MODEL_H_
