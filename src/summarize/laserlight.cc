#include "summarize/laserlight.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <unordered_map>

#include "maxent/entropy.h"
#include "summarize/errors.h"
#include "util/check.h"
#include "util/prng.h"

namespace logr {

namespace {

FeatureVec Intersection(const FeatureVec& a, const FeatureVec& b) {
  FeatureVec out;
  std::set_intersection(a.ids.begin(), a.ids.end(), b.ids.begin(),
                        b.ids.end(), std::back_inserter(out.ids));
  return out;
}

/// Max-ent Bernoulli model over pattern-containment classes of the
/// observed rows, fitted by cyclic iterative scaling. The implicit root
/// pattern (contained in every row) is always constraint 0.
class ExplanationModel {
 public:
  ExplanationModel(const std::vector<FeatureVec>* rows,
                   const std::vector<double>* labels,
                   const std::vector<double>* weights,
                   const LaserlightOptions* opts)
      : rows_(rows), labels_(labels), weights_(weights), opts_(opts) {}

  /// Refits the model for the given pattern list.
  void Fit(const std::vector<FeatureVec>& patterns) {
    const std::size_t m = patterns.size() + 1;  // + root
    // Group rows by pattern-containment signature.
    class_of_row_.assign(rows_->size(), 0);
    class_members_.clear();
    class_weight_.clear();
    class_target_.clear();
    class_odds_.clear();
    std::unordered_map<std::string, std::size_t> index;
    std::vector<std::vector<std::size_t>> class_constraints;
    row_signature_.assign(rows_->size(), {});
    for (std::size_t r = 0; r < rows_->size(); ++r) {
      std::vector<std::size_t> sig;
      sig.push_back(0);  // root
      for (std::size_t j = 0; j < patterns.size(); ++j) {
        if ((*rows_)[r].ContainsAll(patterns[j])) sig.push_back(j + 1);
      }
      std::string key(reinterpret_cast<const char*>(sig.data()),
                      sig.size() * sizeof(std::size_t));
      auto it = index.find(key);
      std::size_t cls;
      if (it == index.end()) {
        cls = class_weight_.size();
        index.emplace(std::move(key), cls);
        class_weight_.push_back(0.0);
        class_target_.push_back(0.0);
        class_odds_.push_back(1.0);
        class_members_.emplace_back();
        class_constraints.push_back(sig);
      } else {
        cls = it->second;
      }
      double w = weights_->empty() ? 1.0 : (*weights_)[r];
      class_weight_[cls] += w;
      class_target_[cls] += w * (*labels_)[r];
      class_members_[cls].push_back(r);
      class_of_row_[r] = cls;
      row_signature_[r] = std::move(sig);
    }

    // Constraint -> classes containing it, and target positive mass.
    constraint_classes_.assign(m, {});
    constraint_target_.assign(m, 0.0);
    for (std::size_t cls = 0; cls < class_weight_.size(); ++cls) {
      for (std::size_t j : class_constraints[cls]) {
        constraint_classes_[j].push_back(cls);
        constraint_target_[j] += class_target_[cls];
      }
    }

    // Cyclic iterative scaling with per-constraint bisection on the
    // multiplicative odds update.
    for (int iter = 0; iter < opts_->max_ipf_iterations; ++iter) {
      double worst = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        double target = constraint_target_[j];
        double current = PositiveMass(j, 1.0);
        worst = std::max(worst, std::fabs(current - target));
        double total = 0.0;
        for (std::size_t cls : constraint_classes_[j]) {
          total += class_weight_[cls];
        }
        if (total <= 0.0) continue;
        double x = SolveScale(j, target, total);
        for (std::size_t cls : constraint_classes_[j]) {
          // Clamp: degenerate constraints (all-positive / all-negative
          // pattern groups) would otherwise drive odds to inf across
          // sweeps and poison the predictions with NaNs.
          class_odds_[cls] =
              std::clamp(class_odds_[cls] * x, 1e-15, 1e15);
        }
      }
      if (worst < opts_->ipf_tolerance) break;
    }
  }

  /// Model prediction per row.
  std::vector<double> Predictions() const {
    std::vector<double> u(rows_->size(), 0.5);
    for (std::size_t r = 0; r < rows_->size(); ++r) {
      double o = class_odds_[class_of_row_[r]];
      u[r] = o / (1.0 + o);
    }
    return u;
  }

  /// Weighted outcome mass (model) of rows in classes matching
  /// constraint j, with odds scaled by `x`.
  double PositiveMass(std::size_t j, double x) const {
    double acc = 0.0;
    for (std::size_t cls : constraint_classes_[j]) {
      double o = class_odds_[cls] * x;
      acc += class_weight_[cls] * (o / (1.0 + o));
    }
    return acc;
  }

 private:
  // Bisection for the odds multiplier hitting `target` positive mass.
  double SolveScale(std::size_t j, double target, double total) const {
    if (target <= 0.0) return 1e-12;
    if (target >= total) return 1e12;
    double lo = 1e-12, hi = 1e12;
    for (int it = 0; it < 70; ++it) {
      double mid = std::sqrt(lo * hi);  // geometric bisection
      if (PositiveMass(j, mid) < target) {
        lo = mid;
      } else {
        hi = mid;
      }
      if (hi / lo < 1.0 + 1e-9) break;
    }
    return std::sqrt(lo * hi);
  }

  const std::vector<FeatureVec>* rows_;
  const std::vector<double>* labels_;
  const std::vector<double>* weights_;
  const LaserlightOptions* opts_;

  std::vector<std::size_t> class_of_row_;
  std::vector<std::vector<std::size_t>> class_members_;
  std::vector<std::vector<std::size_t>> row_signature_;
  std::vector<double> class_weight_;
  std::vector<double> class_target_;
  std::vector<double> class_odds_;
  std::vector<std::vector<std::size_t>> constraint_classes_;
  std::vector<double> constraint_target_;
};

// Projects rows onto the `cap` highest-entropy features (the paper's
// 100-feature PostgreSQL restriction).
std::vector<FeatureVec> ApplyFeatureCap(const std::vector<FeatureVec>& rows,
                                        const std::vector<double>& weights,
                                        std::size_t cap) {
  std::unordered_map<FeatureId, double> mass;
  double total = 0.0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double w = weights.empty() ? 1.0 : weights[r];
    total += w;
    for (FeatureId f : rows[r].ids) mass[f] += w;
  }
  std::vector<std::pair<double, FeatureId>> scored;
  scored.reserve(mass.size());
  // lint:allow no-unordered-iteration (order erased by the total sort below)
  for (const auto& [f, m] : mass) {
    scored.emplace_back(BinaryEntropy(m / total), f);
  }
  // Entropy descending, feature id ascending on ties: without the id
  // tie-break, equal-mass features at the cap boundary were kept or
  // dropped by unordered_map iteration order.
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  if (scored.size() > cap) scored.resize(cap);
  std::vector<FeatureId> keep;
  keep.reserve(scored.size());
  for (const auto& [h, f] : scored) keep.push_back(f);
  FeatureVec keep_vec(std::move(keep));
  std::vector<FeatureVec> out;
  out.reserve(rows.size());
  for (const FeatureVec& r : rows) {
    out.push_back(Intersection(r, keep_vec));
  }
  return out;
}

}  // namespace

LaserlightSummary RunLaserlight(const std::vector<FeatureVec>& rows_in,
                                const std::vector<double>& labels,
                                const std::vector<double>& weights,
                                const LaserlightOptions& opts) {
  LOGR_CHECK(rows_in.size() == labels.size());
  LOGR_CHECK(weights.empty() || weights.size() == rows_in.size());
  LaserlightSummary out;
  if (rows_in.empty()) return out;

  std::vector<FeatureVec> rows = rows_in;
  if (opts.feature_cap > 0) {
    rows = ApplyFeatureCap(rows_in, weights, opts.feature_cap);
  }

  Pcg32 rng(opts.seed);
  ExplanationModel model(&rows, &labels, &weights, &opts);
  model.Fit({});
  std::vector<double> u = model.Predictions();
  out.error_trajectory.push_back(LaserlightError(labels, u, weights));

  std::vector<double> row_weights = weights;
  if (row_weights.empty()) row_weights.assign(rows.size(), 1.0);

  std::unordered_map<std::string, bool> used;
  for (std::size_t k = 0; k < opts.max_patterns; ++k) {
    // Sample rows and build candidates: the samples themselves plus
    // pairwise intersections (the "LCA" patterns of explanation tables).
    std::vector<std::size_t> sample;
    for (std::size_t s = 0; s < opts.sample_size; ++s) {
      sample.push_back(rng.NextDiscrete(row_weights));
    }
    std::vector<FeatureVec> candidates;
    auto add_candidate = [&](FeatureVec c) {
      if (c.empty()) return;
      std::string key = c.HashKey();
      if (used.count(key)) return;
      for (const FeatureVec& existing : candidates) {
        if (existing == c) return;
      }
      candidates.push_back(std::move(c));
    };
    for (std::size_t i = 0; i < sample.size(); ++i) {
      add_candidate(rows[sample[i]]);
      for (std::size_t j = i + 1; j < sample.size(); ++j) {
        add_candidate(Intersection(rows[sample[i]], rows[sample[j]]));
      }
    }
    if (candidates.empty()) continue;

    // Pick the candidate with the largest estimated KL gain.
    double best_gain = 0.0;
    std::size_t best_idx = candidates.size();
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      double w_p = 0.0, v_mass = 0.0, u_mass = 0.0;
      for (std::size_t r = 0; r < rows.size(); ++r) {
        if (!rows[r].ContainsAll(candidates[c])) continue;
        double w = row_weights[r];
        w_p += w;
        v_mass += w * labels[r];
        u_mass += w * u[r];
      }
      if (w_p <= 0.0) continue;
      constexpr double kEps = 1e-12;
      double v_bar = std::min(1.0 - kEps, std::max(kEps, v_mass / w_p));
      double u_bar = std::min(1.0 - kEps, std::max(kEps, u_mass / w_p));
      double gain = w_p * (v_bar * std::log(v_bar / u_bar) +
                           (1.0 - v_bar) *
                               std::log((1.0 - v_bar) / (1.0 - u_bar)));
      if (gain > best_gain) {
        best_gain = gain;
        best_idx = c;
      }
    }
    if (best_idx == candidates.size()) {
      // No informative candidate this round; spend the round anyway
      // (matches the sampling behaviour of the original algorithm).
      out.error_trajectory.push_back(out.error_trajectory.back());
      continue;
    }

    FeatureVec chosen = candidates[best_idx];
    used[chosen.HashKey()] = true;
    double v_mass = 0.0, w_p = 0.0;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (rows[r].ContainsAll(chosen)) {
        w_p += row_weights[r];
        v_mass += row_weights[r] * labels[r];
      }
    }
    out.patterns.push_back(std::move(chosen));
    out.pattern_means.push_back(w_p > 0.0 ? v_mass / w_p : 0.0);
    model.Fit(out.patterns);
    u = model.Predictions();
    out.error_trajectory.push_back(LaserlightError(labels, u, weights));
  }

  out.predictions = u;
  out.error = out.error_trajectory.back();
  return out;
}

}  // namespace logr
