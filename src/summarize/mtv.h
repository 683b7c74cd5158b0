// MTV: summarizing data with the most informative itemsets
// (Mampaey, Vreeken, Tatti, TKDD 6(4), 2012 — the paper's baseline [40]).
//
// The summary is a set of itemsets; its model is the maximum-entropy
// distribution over {0,1}^n matching the itemsets' empirical supports on
// top of the per-item column margins (MTV's background knowledge),
// fitted as a factored model over pattern-connected components
// (maxent/factored_model.h). Mining is greedy: frequent itemsets
// (min-support 0.05, App. D.2) are scored by the divergence between
// empirical and model-estimated support, the best is added, the model
// refitted, and BIC decides termination. The paper consistently hit a
// practical ceiling of 15 patterns ("MTV quits with error message over
// 15 patterns"); the same hard cap is enforced here.
#ifndef LOGR_SUMMARIZE_MTV_H_
#define LOGR_SUMMARIZE_MTV_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/itemsets.h"
#include "workload/feature_vec.h"

namespace logr {

struct MtvOptions {
  std::size_t max_patterns = 15;  // hard ceiling; >15 is rejected
  double min_support = 0.05;
  std::size_t max_itemset_size = 4;
  std::size_t max_candidates = 400;  // highest-support candidates kept
  /// Stop early when adding the best candidate worsens BIC.
  bool bic_early_stop = false;
};

struct MtvSummary {
  std::vector<FeatureVec> itemsets;
  std::vector<double> supports;        // empirical support per itemset
  double model_entropy = 0.0;          // H(ρ̂) in nats
  double bic = 0.0;                    // |D| H + ½ |E| ln |D|
  std::vector<double> bic_trajectory;  // after 0,1,...,k itemsets
  std::string error_message;           // non-empty if the request was
                                       // rejected (e.g. > 15 patterns)
};

/// Runs MTV over weighted binary rows in an `n_features` universe.
MtvSummary RunMtv(const std::vector<FeatureVec>& rows,
                  const std::vector<double>& weights, std::size_t n_features,
                  std::size_t num_patterns, const MtvOptions& opts);

}  // namespace logr

#endif  // LOGR_SUMMARIZE_MTV_H_
