// Deviation and Reproduction Error measures for pattern encodings
// (paper Sections 3.3 and 4.1).
//
// Deviation d(E) = E_{ρ ~ Ω_E}[ KL(ρ* || ρ) ] has no closed form; it is
// estimated by averaging KL divergence over distributions drawn by
// OmegaSampler, exactly as the paper's Section 7.1 does by sampling.
// Reproduction Error e(E) = H(ρ_E) - H(ρ*) uses the max-ent representative
// of the encoding and is computed exactly via iterative scaling.
#ifndef LOGR_MAXENT_DEVIATION_H_
#define LOGR_MAXENT_DEVIATION_H_

#include <cstdint>
#include <vector>

#include "maxent/projected_log.h"
#include "maxent/signature_space.h"

namespace logr {

/// A pattern encoding over a projected universe: patterns + their true
/// marginals measured from the log.
struct ProjectedEncoding {
  std::vector<FeatureVec> patterns;
  std::vector<double> marginals;

  /// Builds the encoding of `patterns` with marginals measured on `log`.
  static ProjectedEncoding Measure(const ProjectedLog& log,
                                   std::vector<FeatureVec> patterns);
};

struct DeviationResult {
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t samples = 0;
};

/// Monte-Carlo estimate of Deviation (paper Sec. 3.3 / Appendix C),
/// sampling distributions over the full 2^n query space at containment-
/// class granularity.
DeviationResult EstimateDeviation(const ProjectedLog& log,
                                  const ProjectedEncoding& encoding,
                                  std::size_t num_samples,
                                  std::uint64_t seed = 1);

/// Deviation estimated over distributions supported on the *observed*
/// distinct queries (Appendix C's non-empty classes Cv interpreted on
/// the empirical support). Refining an encoding splits observed classes
/// and pins their masses, so this variant exhibits the containment/
/// Deviation agreement of Figures 4a/4b; the full-space variant is
/// dominated by the unconstrained bulk of {0,1}^n. EXPERIMENTS.md
/// discusses the distinction.
DeviationResult EstimateDeviationOnSupport(const ProjectedLog& log,
                                           const ProjectedEncoding& encoding,
                                           std::size_t num_samples,
                                           std::uint64_t seed = 1);

/// Exact Reproduction Error e(E) = H(ρ_E) - H(ρ*) of a (non-naive)
/// pattern encoding over the projected universe.
double ReproductionError(const ProjectedLog& log,
                         const ProjectedEncoding& encoding);

/// Reproduction Error of the support-restricted max-ent representative:
/// the entropy-maximal distribution over the *observed* distinct queries
/// subject to the encoding's marginals, minus H(ρ*). Companion measure
/// to EstimateDeviationOnSupport (both live on the same space, so the
/// Fig. 4c/4d correlation is exhibited between them).
double ReproductionErrorOnSupport(const ProjectedLog& log,
                                  const ProjectedEncoding& encoding);

/// Dimension of the feasible polytope Ω_E inside the probability simplex
/// over {0,1}^n: (2^n - 1) minus the number of independent marginal
/// constraints. Under the uninformed prior, Ambiguity I(E) = log |Ω_E| is
/// monotone in containment order (Lemma 2); this dimension is the
/// computable proxy tests verify the monotonicity with. Requires
/// n_features <= 40.
std::size_t AmbiguityDimension(const ProjectedEncoding& encoding,
                               std::size_t n_features);

}  // namespace logr

#endif  // LOGR_MAXENT_DEVIATION_H_
