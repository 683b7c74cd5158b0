#include "maxent/projected_log.h"

#include <cmath>
#include <unordered_map>

#include "util/check.h"

namespace logr {

ProjectedLog::ProjectedLog(const QueryLog& log,
                           const std::vector<FeatureId>& keep) {
  n_features_ = keep.size();
  std::unordered_map<FeatureId, FeatureId> remap;
  remap.reserve(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    remap.emplace(keep[i], static_cast<FeatureId>(i));
  }
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    std::vector<FeatureId> ids;
    for (FeatureId f : log.Vector(i).ids) {
      auto it = remap.find(f);
      if (it != remap.end()) ids.push_back(it->second);
    }
    FeatureVec v(std::move(ids));
    double w = log.Probability(i);
    std::string key = v.HashKey();
    auto it = index.find(key);
    if (it == index.end()) {
      index.emplace(std::move(key), vecs_.size());
      vecs_.push_back(std::move(v));
      probs_.push_back(w);
    } else {
      probs_[it->second] += w;
    }
  }
  Normalize();
}

ProjectedLog::ProjectedLog(const std::vector<FeatureVec>& vecs,
                           const std::vector<double>& weights,
                           std::size_t n_features) {
  LOGR_CHECK(vecs.size() == weights.size());
  n_features_ = n_features;
  std::unordered_map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < vecs.size(); ++i) {
    std::string key = vecs[i].HashKey();
    auto it = index.find(key);
    if (it == index.end()) {
      index.emplace(std::move(key), vecs_.size());
      vecs_.push_back(vecs[i]);
      probs_.push_back(weights[i]);
    } else {
      probs_[it->second] += weights[i];
    }
  }
  Normalize();
}

void ProjectedLog::Normalize() {
  double total = 0.0;
  for (double p : probs_) total += p;
  LOGR_CHECK(total > 0.0);
  for (double& p : probs_) p /= total;
}

double ProjectedLog::EmpiricalEntropy() const {
  double h = 0.0;
  for (double p : probs_) {
    if (p > 0.0) h -= p * std::log(p);
  }
  return h;
}

double ProjectedLog::Marginal(const FeatureVec& b) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < vecs_.size(); ++i) {
    if (vecs_[i].ContainsAll(b)) acc += probs_[i];
  }
  return acc;
}

std::vector<FeatureId> ProjectedLog::SelectFeaturesInBand(const QueryLog& log,
                                                          double lo,
                                                          double hi) {
  std::vector<double> marg(log.NumFeatures(), 0.0);
  for (std::size_t i = 0; i < log.NumDistinct(); ++i) {
    double p = log.Probability(i);
    for (FeatureId f : log.Vector(i).ids) marg[f] += p;
  }
  std::vector<FeatureId> keep;
  for (std::size_t f = 0; f < marg.size(); ++f) {
    if (marg[f] >= lo && marg[f] <= hi) {
      keep.push_back(static_cast<FeatureId>(f));
    }
  }
  return keep;
}

}  // namespace logr
