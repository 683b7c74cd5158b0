// The encoders and the WorkloadModel analytics facade.
//
// The paper compares three encodings of a partitioned log: naive
// mixtures (Sec. 5/6), naive mixtures refined by corr_rank patterns
// (Sec. 6.4), and general pattern encodings fitted by iterative scaling
// (Sec. 2.3.1 / 7.2 — the Laserlight/MTV family). Encoder names each
// one; FromPartition (naive), RefineMixture (refined) and EncodePatterns
// (pattern) build them. All of them answer the same analytics questions
// — marginal / count estimation, Reproduction Error, Total Verbosity —
// through WorkloadModel, the polymorphic facade every downstream
// consumer (index/view advisors, drift monitoring, visualization, the
// CLI, serialization) talks to instead of a concrete encoding class.
#ifndef LOGR_CORE_ENCODER_H_
#define LOGR_CORE_ENCODER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/mixture.h"
#include "util/thread_pool.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

class PatternMixtureModel;

enum class Encoder {
  kNaive,    // "naive": one naive encoding per component
  kRefined,  // "refined": naive plus corr_rank patterns per component
  kPattern,  // "pattern": a max-ent pattern encoding per component
};

/// Stable name of `e` (used in options, summaries and CLIs).
const char* EncoderName(Encoder e);

/// Inverse of EncoderName. Returns false (leaving `*out` untouched) for
/// unknown names.
bool ParseEncoder(const std::string& name, Encoder* out);

/// Whether `e`'s models ride the naive merge/reconcile machinery
/// (sharded compression, offline MergeSummaries): true for naive and
/// refined, whose models' AsNaiveMixture() is non-null.
bool Mergeable(Encoder e);

/// The analytics facade over a compressed workload: everything the
/// paper's use cases (Sec. 2) need from a summary, independent of the
/// encoding family that produced it. The compressed log *replaces* the
/// log for analytics — consumers hold a WorkloadModel, never a concrete
/// encoding.
class WorkloadModel {
 public:
  virtual ~WorkloadModel() = default;

  /// Name of the encoder that produced this model.
  virtual const char* EncoderName() const = 0;

  /// Generalized Reproduction Error Σ_i w_i · e(S_i) in nats (Sec. 5.2).
  virtual double Error() const = 0;

  /// Error of the underlying unrefined encoding when this model is a
  /// refinement; equals Error() for non-refining encoders.
  virtual double BaseError() const { return Error(); }

  /// Total Verbosity Σ_i |S_i| — marginals plus retained patterns
  /// (Sec. 5.2).
  virtual std::size_t TotalVerbosity() const = 0;

  virtual std::size_t NumComponents() const = 0;

  /// Total queries |L| across components.
  virtual std::uint64_t LogSize() const = 0;

  /// Model marginal estimate p(Q ⊇ b) (Sec. 6.2).
  virtual double EstimateMarginal(const FeatureVec& b) const = 0;

  /// Estimated count est[Γ_b(L)] (Sec. 6.2).
  virtual double EstimateCount(const FeatureVec& b) const {
    return static_cast<double>(LogSize()) * EstimateMarginal(b);
  }

  // --- per-component access (drift monitoring, visualization) ---------

  /// Mixture weight w_i = |L_i| / |L|.
  virtual double ComponentWeight(std::size_t i) const = 0;

  /// Queries routed to component i.
  virtual std::uint64_t ComponentLogSize(std::size_t i) const = 0;

  /// Verbosity |S_i| of component i.
  virtual std::size_t ComponentVerbosity(std::size_t i) const = 0;

  /// Reproduction Error e(S_i) of component i.
  virtual double ComponentError(std::size_t i) const = 0;

  /// Features with non-zero marginal in component i, ascending.
  virtual std::vector<FeatureId> ComponentFeatures(std::size_t i) const = 0;

  /// Component i's marginal estimate of single feature `f`.
  virtual double ComponentMarginal(std::size_t i, FeatureId f) const = 0;

  /// Extra multi-feature patterns retained for component i (empty for
  /// encoders without pattern refinement).
  virtual std::vector<FeatureVec> ComponentPatterns(
      std::size_t /*component*/) const {
    return {};
  }

  /// Escape hatch for the naive-mixture machinery (merge, reconcile,
  /// serialization): the underlying NaiveMixtureEncoding, or nullptr
  /// when this model is not backed by one. Analytics consumers must use
  /// the facade above instead.
  virtual const NaiveMixtureEncoding* AsNaiveMixture() const {
    return nullptr;
  }

  /// Escape hatch for serialization of the "pattern" family: the
  /// concrete PatternMixtureModel (core/pattern_model.h), or nullptr
  /// when this model is not one. Analytics consumers must use the
  /// facade above instead.
  virtual const PatternMixtureModel* AsPatternMixture() const {
    return nullptr;
  }
};

/// A naive mixture wrapped as a WorkloadModel (the "naive" encoder's
/// output, and the shape every merge/reconcile path materializes).
class NaiveMixtureModel : public WorkloadModel {
 public:
  explicit NaiveMixtureModel(NaiveMixtureEncoding mixture)
      : mixture_(std::move(mixture)) {}

  const char* EncoderName() const override { return "naive"; }
  double Error() const override { return mixture_.Error(); }
  std::size_t TotalVerbosity() const override {
    return mixture_.TotalVerbosity();
  }
  std::size_t NumComponents() const override {
    return mixture_.NumComponents();
  }
  std::uint64_t LogSize() const override { return mixture_.LogSize(); }
  double EstimateMarginal(const FeatureVec& b) const override {
    return mixture_.EstimateMarginal(b);
  }
  double EstimateCount(const FeatureVec& b) const override {
    return mixture_.EstimateCount(b);
  }
  double ComponentWeight(std::size_t i) const override;
  std::uint64_t ComponentLogSize(std::size_t i) const override;
  std::size_t ComponentVerbosity(std::size_t i) const override;
  double ComponentError(std::size_t i) const override;
  std::vector<FeatureId> ComponentFeatures(std::size_t i) const override;
  double ComponentMarginal(std::size_t i, FeatureId f) const override;
  const NaiveMixtureEncoding* AsNaiveMixture() const override {
    return &mixture_;
  }

 private:
  NaiveMixtureEncoding mixture_;
};

/// A naive mixture plus per-component corr_rank-refined patterns (the
/// "refined" encoder's output, Sec. 6.4). Estimates delegate to the
/// naive marginals; Error() reports the refined Error.
class RefinedMixtureModel : public NaiveMixtureModel {
 public:
  /// `patterns` and `component_errors` carry one entry per component:
  /// the retained extra patterns and the component's refined
  /// Reproduction Error (equal to the naive one where refinement bought
  /// nothing). Error() is the weight-weighted sum of component_errors.
  RefinedMixtureModel(NaiveMixtureEncoding mixture,
                      std::vector<std::vector<FeatureVec>> patterns,
                      std::vector<double> component_errors);

  const char* EncoderName() const override { return "refined"; }
  double Error() const override { return refined_error_; }
  double BaseError() const override { return NaiveMixtureModel::Error(); }
  std::size_t TotalVerbosity() const override;
  std::size_t ComponentVerbosity(std::size_t i) const override;
  double ComponentError(std::size_t i) const override {
    return component_errors_[i];
  }
  std::vector<FeatureVec> ComponentPatterns(std::size_t i) const override;

 private:
  std::vector<std::vector<FeatureVec>> patterns_;  // one list per component
  std::vector<double> component_errors_;           // refined e(S_i)
  double refined_error_ = 0.0;
};

/// Mines + corr_rank-ranks up to `budget` extra patterns per component
/// of `mixture` against `log` (Sec. 6.4) and returns the refined model:
/// the "refined" encoder, on a fresh partition's mixture or on the
/// sharded path's reconciled one. A budget of 0 selects the default of
/// 4 (a refined encode should refine, not degenerate to naive).
/// Components are independent fits, so they run across `pool` (nullptr
/// = serial) into disjoint per-component slots — bit-identical output
/// for any thread count.
std::shared_ptr<const RefinedMixtureModel> RefineMixture(
    const LogView& log, NaiveMixtureEncoding mixture, std::size_t budget,
    ThreadPool* pool = nullptr);

/// The "pattern" encoder: fits a max-ent pattern encoding of up to
/// `budget` frequent itemsets to each component of the `k`-way partition
/// `assignment` of `log`'s distinct vectors (values in [0, k)). A budget
/// of 0 selects the default of 8; larger budgets are clamped to
/// PatternMixtureModel::kMaxServablePatterns (12 — fit cost is
/// exponential in the pattern count). Component fits run across `pool`
/// (nullptr = serial), bit-identical for any thread count.
std::shared_ptr<const WorkloadModel> EncodePatterns(
    const LogView& log, const std::vector<int>& assignment, std::size_t k,
    std::size_t budget, ThreadPool* pool = nullptr);

/// Most patterns the refined encoder can retain for one component of an
/// `n_features`-wide summary: the miner's candidate cap (256), further
/// bounded by the number of distinct multi-feature subsets (2^n - n - 1)
/// when the universe is small. ReadSummary derives its pattern-count
/// plausibility bound from this, so any file WriteSummary produces loads
/// back.
std::size_t MaxRefinedPatternsPerComponent(std::size_t n_features);

}  // namespace logr

#endif  // LOGR_CORE_ENCODER_H_
