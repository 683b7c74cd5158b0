// Containment-equivalence classes over the binary query space
// (paper Appendix C.1).
//
// Given m patterns b_1..b_m over an n-feature universe, every vector
// q ∈ {0,1}^n has a signature sig(q) ∈ {0,1}^m with bit j set iff
// q ⊇ b_j. Vectors with equal signatures are interchangeable for every
// constraint in a pattern encoding, so the max-ent distribution is
// uniform within each class and all computations collapse from 2^n
// elements to at most 2^m classes.
//
// Class sizes are astronomically large (fractions of 2^n), so they are
// carried as *fractions* of the space: atleast(S) = 2^{-|∪_{j∈S} b_j|},
// and exact-signature fractions follow by Möbius inversion over the
// subset lattice. m is small everywhere in the paper (<= 15, the MTV
// ceiling), keeping the 2^m lattice cheap.
//
// The exponents |∪_{j∈S} b_j ∪ b| are exact integers, so they are
// counted with word-wide bit operations: each pattern is stored once as
// a bitmask over the support (the sorted union of all pattern ids), the
// union of class S extends the union of S minus its lowest bit by one
// OR, and its size is a popcount plus the ids of b that fall outside
// the support. How the integers are counted cannot change a result, and
// the floating-point steps follow the definition above in a fixed
// order, so the fractions are bit-identical to a per-class sorted-union
// loop (the oracle in maxent_test). A lattice walk allocates its result
// and one (m+1)-row union buffer and nothing else, and shares no
// mutable state, so concurrent walks over one space are safe.
#ifndef LOGR_MAXENT_SIGNATURE_SPACE_H_
#define LOGR_MAXENT_SIGNATURE_SPACE_H_

#include <cstdint>
#include <vector>

#include "workload/feature_vec.h"

namespace logr {

class SignatureSpace {
 public:
  /// Hard ceiling on the pattern count: the 2^m lattice is materialized,
  /// so m > kMaxPatterns would exhaust memory long before any fit
  /// converges. The one source of the bound for every caller.
  static constexpr std::size_t kMaxPatterns = 20;

  /// Builds the signature lattice for `patterns` over an `n_features`
  /// universe. Requires patterns.size() <= kMaxPatterns.
  SignatureSpace(std::vector<FeatureVec> patterns, std::size_t n_features);

  std::size_t num_patterns() const { return patterns_.size(); }
  std::size_t num_features() const { return n_features_; }
  std::size_t num_classes() const { return std::size_t(1) << patterns_.size(); }

  const std::vector<FeatureVec>& patterns() const { return patterns_; }

  /// Fraction of the 2^n space whose signature is exactly `s`.
  /// Fractions over all classes sum to 1 (up to rounding).
  double ClassFraction(std::uint32_t s) const { return exact_fraction_[s]; }

  /// Natural log of the absolute class size 2^n * fraction.
  /// Requires ClassFraction(s) > 0.
  double LogClassSize(std::uint32_t s) const;

  /// Signature of a concrete vector.
  std::uint32_t SignatureOf(const FeatureVec& q) const;

  /// Fraction of the space that (a) has exact signature `s` and (b)
  /// contains pattern `b`. Used to compute model marginals of patterns
  /// outside the constraint set.
  std::vector<double> ClassFractionsContaining(const FeatureVec& b) const;

 private:
  // Shared Möbius machinery: exact-signature fractions where class
  // "at least S" has fraction 2^{-|union(S) ∪ extra|}.
  std::vector<double> ComputeExactFractions(const FeatureVec& extra) const;

  std::vector<FeatureVec> patterns_;
  std::size_t n_features_;
  std::vector<FeatureId> support_;      // sorted union of pattern ids
  std::size_t words_ = 0;               // ⌈|support_| / 64⌉
  std::vector<std::uint64_t> masks_;    // pattern j: words [j·W, (j+1)·W)
  std::vector<double> exact_fraction_;  // size 2^m
};

}  // namespace logr

#endif  // LOGR_MAXENT_SIGNATURE_SPACE_H_
