#include "maxent/scaling.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace logr {

double MassUnderMask(const std::vector<IpfState>& states,
                     std::uint32_t mask) {
  double acc = 0.0;
  for (const IpfState& st : states) {
    if ((st.sig & mask) == mask) acc += st.mass;
  }
  return acc;
}

IpfResult FitIpf(std::vector<IpfState>* states,
                 const std::vector<IpfConstraint>& constraints,
                 const ScalingOptions& opts) {
  IpfResult result;
  for (; result.iterations < opts.max_iterations; ++result.iterations) {
    double worst = 0.0;
    for (const IpfConstraint& c : constraints) {
      const double in_mass = MassUnderMask(*states, c.mask);
      worst = std::max(worst, std::fabs(in_mass - c.target));
      // Scale factors; degenerate constraints (0 or 1) zero one side.
      const double scale_in = in_mass > 0.0 ? c.target / in_mass : 0.0;
      const double scale_out =
          in_mass < 1.0 ? (1.0 - c.target) / (1.0 - in_mass) : 0.0;
      for (IpfState& st : *states) {
        st.mass *= (st.sig & c.mask) == c.mask ? scale_in : scale_out;
      }
    }
    if (worst < opts.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

MaxEntModel::MaxEntModel(const SignatureSpace* space,
                         std::vector<double> marginals,
                         const ScalingOptions& opts)
    : space_(space), target_marginals_(std::move(marginals)) {
  const std::size_t m = space_->num_patterns();
  LOGR_CHECK(target_marginals_.size() == m);
  const std::size_t classes = space_->num_classes();

  // Start from the uniform distribution over the space: class probability
  // proportional to class size. Empty classes start and stay at exactly
  // zero, so only the live ones are swept.
  double total = 0.0;
  for (std::size_t s = 0; s < classes; ++s) {
    const double frac = space_->ClassFraction(static_cast<std::uint32_t>(s));
    total += frac;
    if (frac > 0.0) live_.push_back({static_cast<std::uint32_t>(s), frac});
  }
  LOGR_CHECK(total > 0.0);
  for (IpfState& st : live_) st.mass /= total;

  // The fixed point of IPF is the unique max-ent distribution.
  std::vector<IpfConstraint> constraints(m);
  for (std::size_t j = 0; j < m; ++j) {
    constraints[j] = {std::uint32_t(1) << j, target_marginals_[j]};
  }
  const IpfResult fit = FitIpf(&live_, constraints, opts);
  iterations_ = fit.iterations;
  converged_ = fit.converged;

  // Final renormalization guards against drift.
  double z = 0.0;
  for (const IpfState& st : live_) z += st.mass;
  if (z > 0.0) {
    for (IpfState& st : live_) st.mass /= z;
  }
  class_prob_.assign(classes, 0.0);
  for (const IpfState& st : live_) class_prob_[st.sig] = st.mass;
}

double MaxEntModel::EntropyNats() const {
  double h = 0.0;
  for (const IpfState& st : live_) {
    if (st.mass <= 0.0) continue;
    // -P_S ln P_S + P_S ln |class|
    h -= st.mass * std::log(st.mass);
    h += st.mass * space_->LogClassSize(st.sig);
  }
  return h;
}

double MaxEntModel::MarginalOf(const FeatureVec& b) const {
  std::vector<double> with_b = space_->ClassFractionsContaining(b);
  double acc = 0.0;
  for (std::size_t s = 0; s < class_prob_.size(); ++s) {
    double frac = space_->ClassFraction(static_cast<std::uint32_t>(s));
    if (frac <= 0.0 || class_prob_[s] <= 0.0) continue;
    // Within class s the model is uniform, so the containment
    // probability is the fraction of the class that contains b.
    acc += class_prob_[s] * (with_b[s] / frac);
  }
  return acc;
}

double MaxEntModel::MaxResidual() const {
  double worst = 0.0;
  for (std::size_t j = 0; j < target_marginals_.size(); ++j) {
    const double pj = MassUnderMask(live_, std::uint32_t(1) << j);
    worst = std::max(worst, std::fabs(pj - target_marginals_[j]));
  }
  return worst;
}

}  // namespace logr
