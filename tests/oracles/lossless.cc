#include "oracles/lossless.h"

#include "util/check.h"

namespace logr {

double ExactProbabilityFromMarginals(
    const std::function<double(const FeatureVec&)>& marginal_of,
    const FeatureVec& q, const FeatureVec& universe) {
  LOGR_CHECK(universe.ContainsAll(q));
  std::vector<FeatureId> absent;
  for (FeatureId f : universe.ids) {
    if (!q.Contains(f)) absent.push_back(f);
  }
  LOGR_CHECK(absent.size() <= 24);

  // Inclusion-exclusion over subsets of the absent features: each subset
  // S contributes (-1)^|S| p(Q ⊇ q ∪ S). (Appendix B's p_k recursion,
  // unrolled.)
  double acc = 0.0;
  const std::size_t subsets = std::size_t(1) << absent.size();
  for (std::size_t s = 0; s < subsets; ++s) {
    std::vector<FeatureId> ids = q.ids;
    int bits = 0;
    for (std::size_t j = 0; j < absent.size(); ++j) {
      if (s & (std::size_t(1) << j)) {
        ids.push_back(absent[j]);
        ++bits;
      }
    }
    double term = marginal_of(FeatureVec(std::move(ids)));
    acc += (bits % 2 == 0) ? term : -term;
  }
  // Clamp tiny negative rounding residue.
  if (acc < 0.0 && acc > -1e-12) acc = 0.0;
  return acc;
}

double ExactProbabilityFromLog(const QueryLog& log, const FeatureVec& q,
                               const FeatureVec& universe) {
  return ExactProbabilityFromMarginals(
      [&log](const FeatureVec& b) { return log.Marginal(b); }, q, universe);
}

}  // namespace logr
