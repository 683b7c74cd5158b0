// Generalized iterative scaling for pattern-constrained maximum entropy
// (paper Section 4.1; the iterative-scaling alternative it cites [17,20,40]).
//
// The max-ent distribution subject to marginal constraints
// p(Q ⊇ b_j) = q_j is of product form and hence uniform within each
// containment-equivalence class, so fitting runs over the 2^m class
// lattice of a SignatureSpace instead of the 2^n query space.
//
// FitIpf is the one iterative-scaling kernel: MaxEntModel sweeps the
// non-empty classes of its lattice, FactoredMaxEnt the dense 2^d joint
// of each block, and ReproductionErrorOnSupport the observed classes.
#ifndef LOGR_MAXENT_SCALING_H_
#define LOGR_MAXENT_SCALING_H_

#include <cstdint>
#include <vector>

#include "maxent/signature_space.h"

namespace logr {

struct ScalingOptions {
  int max_iterations = 2000;
  /// Convergence threshold on the max absolute marginal residual.
  double tolerance = 1e-9;
};

/// One state of an iterative-scaling fit: its containment signature (bit
/// j set iff the state contains pattern j) and its current mass.
struct IpfState {
  std::uint32_t sig = 0;
  double mass = 0.0;
};

/// A marginal constraint: the states whose signature holds every bit of
/// `mask` carry `target` of the mass.
struct IpfConstraint {
  std::uint32_t mask = 0;
  double target = 0.0;
};

struct IpfResult {
  int iterations = 0;
  bool converged = false;
};

/// Total mass of the states whose signature holds every bit of `mask`,
/// summed in list order.
double MassUnderMask(const std::vector<IpfState>& states, std::uint32_t mask);

/// Iterative proportional fitting: each sweep visits the constraints in
/// order and rescales the satisfying / non-satisfying states to match
/// each target. Stops after the first sweep whose largest residual
/// (measured before each rescale) is below `opts.tolerance`, or after
/// `opts.max_iterations` sweeps. `iterations` counts the sweeps before
/// the converging one. Masses are not renormalized.
IpfResult FitIpf(std::vector<IpfState>* states,
                 const std::vector<IpfConstraint>& constraints,
                 const ScalingOptions& opts);

/// A fitted max-ent model over a signature space.
class MaxEntModel {
 public:
  /// Fits the max-ent distribution with p(Q ⊇ b_j) = marginals[j] via
  /// iterative proportional fitting over the classes with non-zero
  /// fraction (the rest hold no vectors and stay at exactly zero).
  /// Marginals must be consistent (they are whenever they were measured
  /// from an actual log).
  MaxEntModel(const SignatureSpace* space, std::vector<double> marginals,
              const ScalingOptions& opts = ScalingOptions());

  bool converged() const { return converged_; }
  int iterations() const { return iterations_; }
  const std::vector<double>& class_probabilities() const {
    return class_prob_;
  }

  /// Entropy (nats) of the model over the full 2^n space:
  /// H = -Σ_S P_S ln(P_S / |S|).
  double EntropyNats() const;

  /// Model marginal p(Q ⊇ b) of an arbitrary pattern.
  double MarginalOf(const FeatureVec& b) const;

  /// Max absolute deviation between fitted and requested marginals.
  double MaxResidual() const;

 private:
  const SignatureSpace* space_;
  std::vector<double> target_marginals_;
  std::vector<IpfState> live_;     // fitted non-empty classes, by signature
  std::vector<double> class_prob_;  // dense over all 2^m classes
  bool converged_ = false;
  int iterations_ = 0;
};

}  // namespace logr

#endif  // LOGR_MAXENT_SCALING_H_
