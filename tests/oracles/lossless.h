// Lossless reconstruction from full pattern encodings
// (paper Proposition 1 / Appendix B).
//
// Given the complete marginal mapping E_max over a feature universe F,
// the probability of drawing *exactly* configuration q (within F) is
// recoverable by the appendix's telescoping recursion, which closes to
// inclusion-exclusion over the absent features:
//
//   p(X_F = q) = Σ_{S ⊆ F \ q} (-1)^{|S|} · p(Q ⊇ q ∪ S)
//
// This is the paper's argument that pattern encodings are lossless in
// the limit; the implementation is a test oracle for encoding fidelity,
// linked into the tests through the logr_oracles library and not part
// of `logr`.
#ifndef LOGR_ORACLES_LOSSLESS_H_
#define LOGR_ORACLES_LOSSLESS_H_

#include <functional>

#include "workload/query_log.h"

namespace logr {

/// Exact probability that a query drawn from the distribution behind
/// `marginal_of` contains exactly the features q within `universe`
/// (features outside the universe are unconstrained). `marginal_of`
/// plays the role of E_max: it must return p(Q ⊇ b) for any pattern b
/// over the universe. Requires q ⊆ universe and
/// |universe| - |q| <= 24 (the inclusion-exclusion enumerates subsets of
/// the absent features).
double ExactProbabilityFromMarginals(
    const std::function<double(const FeatureVec&)>& marginal_of,
    const FeatureVec& q, const FeatureVec& universe);

/// Convenience overload reading marginals from a log (the empirical
/// E_max of Sec. 3.1).
double ExactProbabilityFromLog(const QueryLog& log, const FeatureVec& q,
                               const FeatureVec& universe);

}  // namespace logr

#endif  // LOGR_ORACLES_LOSSLESS_H_
