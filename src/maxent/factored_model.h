// Factored maximum-entropy model: singleton (per-feature) marginals plus
// multi-feature pattern constraints.
//
// The max-ent distribution subject to per-feature marginals and pattern
// marginals factorizes over the connected components of the pattern-
// feature graph: features untouched by any pattern stay independent, and
// each component is a small joint distribution fitted by dense IPF
// (FitIpf, maxent/scaling.h) over its 2^d states. This is simultaneously:
//   * the model of a refined naive encoding (paper Sec. 6.4), and
//   * the MTV model with column-margin background knowledge
//     (Mampaey et al. [40] fit itemsets on top of singleton frequencies).
//
// Components whose feature block would exceed `max_block_features` have
// their lowest-priority patterns dropped — the practical inference
// ceiling the paper repeatedly hits with MTV (Sec. 7.2.2).
#ifndef LOGR_MAXENT_FACTORED_MODEL_H_
#define LOGR_MAXENT_FACTORED_MODEL_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "maxent/scaling.h"
#include "workload/feature_vec.h"

namespace logr {

class FactoredMaxEnt {
 public:
  struct PatternConstraint {
    FeatureVec pattern;
    double marginal = 0.0;
  };

  /// `singletons` lists (feature, marginal) for every feature with
  /// non-zero marginal; absent features have marginal 0. `patterns` are
  /// retained greedily in the given order (callers pre-sort by priority,
  /// e.g. |corr_rank|) subject to the block ceiling.
  FactoredMaxEnt(std::vector<std::pair<FeatureId, double>> singletons,
                 std::vector<PatternConstraint> patterns,
                 std::size_t max_block_features = 18);

  /// Entropy of the model (nats): independent features plus block joints.
  double EntropyNats() const { return entropy_; }

  /// Model marginal p(Q ⊇ b): product across independent features and
  /// per-block joint marginals (blocks are mutually independent).
  double MarginalOf(const FeatureVec& b) const;

  /// Patterns that survived the block ceiling, in retention order.
  const std::vector<FeatureVec>& retained_patterns() const {
    return retained_;
  }

  std::size_t num_blocks() const { return blocks_.size(); }

  /// Whether every block's fit met its tolerance within the sweep cap.
  bool converged() const { return converged_; }

 private:
  struct Block {
    std::vector<FeatureId> features;  // global ids, local index = position
    std::vector<IpfState> states;     // all 2^features.size(), sig = index
  };

  std::unordered_map<FeatureId, double> singleton_;
  std::unordered_map<FeatureId, std::size_t> block_of_;
  std::vector<Block> blocks_;
  std::vector<FeatureVec> retained_;
  double entropy_ = 0.0;
  bool converged_ = true;
};

}  // namespace logr

#endif  // LOGR_MAXENT_FACTORED_MODEL_H_
