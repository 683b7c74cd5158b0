#include "core/naive_encoding.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "maxent/entropy.h"
#include "util/check.h"

namespace logr {

NaiveEncoding NaiveEncoding::FromLog(const QueryLog& log) {
  std::vector<FeatureVec> vecs;
  std::vector<double> weights;
  vecs.reserve(log.NumDistinct());
  weights.reserve(log.NumDistinct());
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    vecs.push_back(log.Vector(i));
    weights.push_back(static_cast<double>(log.Multiplicity(i)));
  }
  return FromWeighted(vecs, weights, log.NumFeatures(), log.TotalQueries());
}

NaiveEncoding NaiveEncoding::FromWeighted(const std::vector<FeatureVec>& vecs,
                                          const std::vector<double>& weights,
                                          std::size_t n_features,
                                          std::uint64_t total_count) {
  LOGR_CHECK(vecs.size() == weights.size());
  NaiveEncoding out;
  out.log_size_ = total_count;

  double total_weight = 0.0;
  for (double w : weights) total_weight += w;
  if (total_weight <= 0.0) return out;

  std::vector<double> marginal(n_features, 0.0);
  for (std::size_t i = 0; i < vecs.size(); ++i) {
    double p = weights[i] / total_weight;
    for (FeatureId f : vecs[i].ids) {
      LOGR_DCHECK(f < n_features);
      marginal[f] += p;
    }
    if (p > 0.0) out.empirical_entropy_ -= p * std::log(p);
  }
  for (std::size_t f = 0; f < n_features; ++f) {
    if (marginal[f] > 0.0) {
      double p = std::min(marginal[f], 1.0);
      out.features_.push_back(static_cast<FeatureId>(f));
      out.marginals_.push_back(p);
      out.marginal_by_id_.emplace(static_cast<FeatureId>(f), p);
      out.maxent_entropy_ += BinaryEntropy(p);
    }
  }
  return out;
}

NaiveEncoding NaiveEncoding::FromMarginals(std::vector<FeatureId> features,
                                           std::vector<double> marginals,
                                           double empirical_entropy,
                                           std::uint64_t log_size) {
  LOGR_CHECK(features.size() == marginals.size());
  if (!std::is_sorted(features.begin(), features.end())) {
    std::vector<std::pair<FeatureId, double>> pairs;
    pairs.reserve(features.size());
    for (std::size_t i = 0; i < features.size(); ++i) {
      pairs.emplace_back(features[i], marginals[i]);
    }
    std::sort(pairs.begin(), pairs.end());
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      features[i] = pairs[i].first;
      marginals[i] = pairs[i].second;
    }
  }
  NaiveEncoding out;
  out.log_size_ = log_size;
  out.empirical_entropy_ = empirical_entropy;
  for (std::size_t i = 0; i < features.size(); ++i) {
    double p = std::min(std::max(marginals[i], 0.0), 1.0);
    if (p <= 0.0) continue;
    out.features_.push_back(features[i]);
    out.marginals_.push_back(p);
    out.marginal_by_id_.emplace(features[i], p);
    out.maxent_entropy_ += BinaryEntropy(p);
  }
  return out;
}

double NaiveEncoding::Marginal(FeatureId f) const {
  auto it = marginal_by_id_.find(f);
  return it == marginal_by_id_.end() ? 0.0 : it->second;
}

double NaiveEncoding::EstimateMarginal(const FeatureVec& b) const {
  double p = 1.0;
  for (FeatureId f : b.ids) {
    double m = Marginal(f);
    if (m <= 0.0) return 0.0;
    p *= m;
  }
  return p;
}

double NaiveEncoding::ProbabilityOfExactly(const FeatureVec& q) const {
  double p = 1.0;
  for (std::size_t i = 0; i < features_.size(); ++i) {
    bool present = q.Contains(features_[i]);
    p *= present ? marginals_[i] : (1.0 - marginals_[i]);
  }
  // Features of q outside the encoding's support have probability 0.
  for (FeatureId f : q.ids) {
    if (marginal_by_id_.find(f) == marginal_by_id_.end()) return 0.0;
  }
  return p;
}

}  // namespace logr
