#include "maxent/deviation.h"

#include <cmath>
#include <algorithm>
#include <unordered_map>

#include "linalg/solve.h"
#include "maxent/omega_sampler.h"
#include "maxent/scaling.h"
#include "util/check.h"
#include "util/prng.h"

namespace logr {

namespace {

/// Fit settings of the support-restricted max-ent representative.
constexpr ScalingOptions kSupportFit{500, 1e-10};

// KL(ρ* || ρ) where ρ is uniform-within-class with class masses
// `class_prob`. The empirical ρ* is supported on the log's distinct
// vectors, so the sum is finite. Classes starved of probability are
// epsilon-smoothed (the absolute-continuity caveat of Sec. 3.3).
double KlAgainstClassDistribution(const ProjectedLog& log,
                                  const SignatureSpace& space,
                                  const std::vector<double>& class_prob) {
  constexpr double kEps = 1e-12;
  double kl = 0.0;
  for (std::size_t i = 0; i < log.num_distinct(); ++i) {
    double p_true = log.Probability(i);
    if (p_true <= 0.0) continue;
    std::uint32_t s = space.SignatureOf(log.Vector(i));
    double mass = class_prob[s];
    double log_rho;
    if (space.ClassFraction(s) <= 0.0) {
      // Cannot happen for vectors genuinely in the space; guard anyway.
      log_rho = std::log(kEps);
    } else {
      double m = mass > kEps ? mass : kEps;
      log_rho = std::log(m) - space.LogClassSize(s);
    }
    kl += p_true * (std::log(p_true) - log_rho);
  }
  return kl;
}

}  // namespace

ProjectedEncoding ProjectedEncoding::Measure(
    const ProjectedLog& log, std::vector<FeatureVec> patterns) {
  ProjectedEncoding e;
  e.marginals.reserve(patterns.size());
  for (const FeatureVec& b : patterns) {
    e.marginals.push_back(log.Marginal(b));
  }
  e.patterns = std::move(patterns);
  return e;
}

DeviationResult EstimateDeviation(const ProjectedLog& log,
                                  const ProjectedEncoding& encoding,
                                  std::size_t num_samples,
                                  std::uint64_t seed) {
  SignatureSpace space(encoding.patterns, log.num_features());
  OmegaSampler sampler(&space, encoding.marginals);
  Pcg32 rng(seed);

  DeviationResult out;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t i = 0; i < num_samples; ++i) {
    std::vector<double> rho = sampler.Sample(&rng);
    double kl = KlAgainstClassDistribution(log, space, rho);
    sum += kl;
    sum_sq += kl * kl;
  }
  out.samples = num_samples;
  if (num_samples > 0) {
    out.mean = sum / static_cast<double>(num_samples);
    double var = sum_sq / static_cast<double>(num_samples) -
                 out.mean * out.mean;
    out.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  }
  return out;
}

DeviationResult EstimateDeviationOnSupport(const ProjectedLog& log,
                                           const ProjectedEncoding& encoding,
                                           std::size_t num_samples,
                                           std::uint64_t seed) {
  const std::size_t m = encoding.patterns.size();
  LOGR_CHECK(m <= 20);

  // Group observed distinct queries by containment signature.
  std::vector<std::uint32_t> sig_of(log.num_distinct(), 0);
  std::unordered_map<std::uint32_t, std::size_t> class_index;
  std::vector<std::uint32_t> class_sig;
  std::vector<double> class_distinct;  // # observed vectors per class
  for (std::size_t i = 0; i < log.num_distinct(); ++i) {
    std::uint32_t s = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (log.Vector(i).ContainsAll(encoding.patterns[j])) {
        s |= std::uint32_t(1) << j;
      }
    }
    sig_of[i] = s;
    auto it = class_index.find(s);
    if (it == class_index.end()) {
      class_index.emplace(s, class_sig.size());
      class_sig.push_back(s);
      class_distinct.push_back(1.0);
    } else {
      class_distinct[it->second] += 1.0;
    }
  }
  const std::size_t classes = class_sig.size();

  // Constraint system: masses sum to 1; classes matching pattern j sum
  // to the encoded marginal.
  Matrix a(m + 1, classes);
  Vector rhs(m + 1, 0.0);
  for (std::size_t c = 0; c < classes; ++c) a(0, c) = 1.0;
  rhs[0] = 1.0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < classes; ++c) {
      if (class_sig[c] & (std::uint32_t(1) << j)) a(j + 1, c) = 1.0;
    }
    rhs[j + 1] = encoding.marginals[j];
  }

  Pcg32 rng(seed);
  constexpr double kEps = 1e-12;
  double sum = 0.0, sum_sq = 0.0;
  for (std::size_t iter = 0; iter < num_samples; ++iter) {
    // Step 1 (Algorithm 1): uniform random class masses.
    Vector p(classes);
    double total = 0.0;
    for (double& v : p) {
      v = rng.NextDouble();
      total += v;
    }
    for (double& v : p) v /= total;
    // Step 2 repair (Appendix C.2): alternate affine projection / clip.
    Vector proj;
    for (int round = 0; round < 25; ++round) {
      if (!ProjectOntoAffine(a, rhs, p, &proj)) break;
      double worst = 0.0;
      for (double v : proj) {
        if (v < worst) worst = v;
      }
      p = proj;
      if (worst > -1e-10) break;
      for (double& v : p) {
        if (v < 0.0) v = 0.0;
      }
    }
    double z = 0.0;
    for (double& v : p) {
      if (v < 0.0) v = 0.0;
      z += v;
    }
    LOGR_CHECK(z > 0.0);
    for (double& v : p) v /= z;

    // KL(ρ* || ρ) with ρ uniform within observed classes.
    double kl = 0.0;
    for (std::size_t i = 0; i < log.num_distinct(); ++i) {
      double p_true = log.Probability(i);
      if (p_true <= 0.0) continue;
      std::size_t c = class_index[sig_of[i]];
      double rho = p[c] / class_distinct[c];
      kl += p_true * (std::log(p_true) - std::log(rho > kEps ? rho : kEps));
    }
    sum += kl;
    sum_sq += kl * kl;
  }

  DeviationResult out;
  out.samples = num_samples;
  if (num_samples > 0) {
    out.mean = sum / static_cast<double>(num_samples);
    double var =
        sum_sq / static_cast<double>(num_samples) - out.mean * out.mean;
    out.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  }
  return out;
}

double ReproductionError(const ProjectedLog& log,
                         const ProjectedEncoding& encoding) {
  SignatureSpace space(encoding.patterns, log.num_features());
  MaxEntModel model(&space, encoding.marginals);
  return model.EntropyNats() - log.EmpiricalEntropy();
}

double ReproductionErrorOnSupport(const ProjectedLog& log,
                                  const ProjectedEncoding& encoding) {
  const std::size_t m = encoding.patterns.size();
  LOGR_CHECK(m <= 25);

  // Observed classes and their distinct-vector counts.
  std::unordered_map<std::uint32_t, std::size_t> class_index;
  std::vector<double> class_count;
  std::vector<std::uint32_t> class_sig;
  for (std::size_t i = 0; i < log.num_distinct(); ++i) {
    std::uint32_t s = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (log.Vector(i).ContainsAll(encoding.patterns[j])) {
        s |= std::uint32_t(1) << j;
      }
    }
    auto it = class_index.find(s);
    if (it == class_index.end()) {
      class_index.emplace(s, class_sig.size());
      class_sig.push_back(s);
      class_count.push_back(1.0);
    } else {
      class_count[it->second] += 1.0;
    }
  }
  const std::size_t classes = class_sig.size();

  // IPF: maximize -Σ P_s ln(P_s / cnt_s) subject to the marginals.
  std::vector<IpfState> states(classes);
  double total_count = 0.0;
  for (double c : class_count) total_count += c;
  for (std::size_t c = 0; c < classes; ++c) {
    states[c] = {class_sig[c], class_count[c] / total_count};
  }
  std::vector<IpfConstraint> constraints(m);
  for (std::size_t j = 0; j < m; ++j) {
    constraints[j] = {std::uint32_t(1) << j, encoding.marginals[j]};
  }
  FitIpf(&states, constraints, kSupportFit);
  // Entropy over observed vectors: uniform within classes.
  double h = 0.0;
  for (std::size_t c = 0; c < classes; ++c) {
    if (states[c].mass <= 0.0) continue;
    h -= states[c].mass * std::log(states[c].mass / class_count[c]);
  }
  return h - log.EmpiricalEntropy();
}

std::size_t AmbiguityDimension(const ProjectedEncoding& encoding,
                               std::size_t n_features) {
  LOGR_CHECK(n_features <= 40);  // dimension counted at vector granularity
  SignatureSpace space(encoding.patterns, n_features);
  std::vector<std::uint32_t> live;
  for (std::uint32_t s = 0;
       s < static_cast<std::uint32_t>(space.num_classes()); ++s) {
    if (space.ClassFraction(s) > 0.0) live.push_back(s);
  }
  const std::size_t m = encoding.patterns.size();
  // Constraint rows: sum-to-one plus one row per pattern, expressed over
  // live classes (each class is a block of interchangeable vectors, so
  // class-level rank equals vector-level rank). Rank via elimination.
  Matrix a(m + 1, live.size());
  for (std::size_t c = 0; c < live.size(); ++c) a(0, c) = 1.0;
  for (std::size_t j = 0; j < m; ++j) {
    for (std::size_t c = 0; c < live.size(); ++c) {
      if (live[c] & (std::uint32_t(1) << j)) a(j + 1, c) = 1.0;
    }
  }
  // Row-echelon rank.
  std::size_t rank = 0;
  std::size_t rows = a.rows(), cols = a.cols();
  std::size_t pivot_col = 0;
  for (std::size_t r = 0; r < rows && pivot_col < cols; ++pivot_col) {
    std::size_t best = r;
    double best_val = std::fabs(a(r, pivot_col));
    for (std::size_t i = r + 1; i < rows; ++i) {
      if (std::fabs(a(i, pivot_col)) > best_val) {
        best = i;
        best_val = std::fabs(a(i, pivot_col));
      }
    }
    if (best_val < 1e-9) continue;
    if (best != r) {
      for (std::size_t c = 0; c < cols; ++c) std::swap(a(r, c), a(best, c));
    }
    for (std::size_t i = r + 1; i < rows; ++i) {
      double f = a(i, pivot_col) / a(r, pivot_col);
      if (f == 0.0) continue;
      for (std::size_t c = pivot_col; c < cols; ++c) {
        a(i, c) -= f * a(r, c);
      }
    }
    ++r;
    ++rank;
  }
  // Ω_E lives in the (2^n - 1)-dimensional probability simplex over
  // query vectors; each independent constraint removes one dimension.
  std::size_t simplex_dim = (std::size_t(1) << n_features) - 1;
  std::size_t constraints = rank > 0 ? rank - 1 : 0;  // minus sum row
  return simplex_dim > constraints ? simplex_dim - constraints : 0;
}

}  // namespace logr
