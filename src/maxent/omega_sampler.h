// Sampling random distributions from the space Ω_E allowed by an
// encoding (paper Appendix C).
//
// Implements Algorithm 1 (TwoStepSampling): step 1 draws a random
// probability assignment over non-empty equivalence classes; step 2 is
// implicit because within-class assignments never matter to any measure
// we compute (the empirical distribution is supported on finitely many
// vectors, each alone in its within-class role under the uniform
// redistribution). Samples are then repaired onto the constraint
// hyperplane { class_p : A class_p = marginals, Σ class_p = 1 } by
// Euclidean projection (Appendix C.2), followed by clipping of negative
// entries and re-projection.
#ifndef LOGR_MAXENT_OMEGA_SAMPLER_H_
#define LOGR_MAXENT_OMEGA_SAMPLER_H_

#include <vector>

#include "linalg/matrix.h"
#include "maxent/signature_space.h"
#include "util/prng.h"

namespace logr {

class OmegaSampler {
 public:
  /// `marginals[j]` is the encoded marginal of space->patterns()[j].
  OmegaSampler(const SignatureSpace* space, std::vector<double> marginals);

  /// Draws one random class-probability vector from (a projection-based
  /// approximation of) the uniform distribution over Ω_E. The result has
  /// non-negative entries summing to 1 and satisfies the marginal
  /// constraints up to the repair tolerance.
  std::vector<double> Sample(Pcg32* rng) const;

 private:
  const SignatureSpace* space_;
  std::vector<double> marginals_;
  std::vector<std::uint32_t> live_classes_;
  // Constraint system over live classes: row 0 is Σ p = 1, then one row
  // per pattern marginal.
  Matrix constraints_;
  Vector rhs_;
};

}  // namespace logr

#endif  // LOGR_MAXENT_OMEGA_SAMPLER_H_
