// Feature extraction from (regularized) SQL ASTs.
//
// Implements the Aligon scheme of paper Section 2.2: each feature is a
// SELECT output expression, a FROM table or subquery, or a conjunctive
// WHERE atom. Join ON conditions contribute WHERE atoms (they are
// predicates). For UNION statements the feature set is the union over
// branches. The extended scheme adds GROUP BY / ORDER BY / LIMIT features.
#ifndef LOGR_WORKLOAD_EXTRACTOR_H_
#define LOGR_WORKLOAD_EXTRACTOR_H_

#include <vector>

#include "sql/ast.h"
#include "workload/feature.h"
#include "workload/feature_vec.h"

namespace logr {

struct ExtractOptions {
  /// Capture GROUP BY / ORDER BY / LIMIT features in addition to the
  /// three Aligon clauses.
  bool extended_clauses = false;
};

/// Extracts the feature set of `stmt`, interning new features into
/// `vocab`. The statement should already be regularized (see
/// sql/normalizer.h); raw statements still extract, just less canonically.
FeatureVec ExtractFeatures(const sql::Statement& stmt,
                           const ExtractOptions& opts, Vocabulary* vocab);

/// Lists the features of `stmt` without touching a vocabulary.
std::vector<Feature> ListFeatures(const sql::Statement& stmt,
                                  const ExtractOptions& opts);

}  // namespace logr

#endif  // LOGR_WORKLOAD_EXTRACTOR_H_
