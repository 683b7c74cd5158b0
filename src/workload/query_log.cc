#include "workload/query_log.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace logr {

void QueryLog::Add(const FeatureVec& q, std::uint64_t count,
                   std::string sample_sql) {
  if (count == 0) return;  // zero occurrences: nothing to record
  LOGR_CHECK_MSG(total_ + count >= total_, "multiplicity total overflows");
  if (!q.ids.empty()) {
    std::size_t bound = static_cast<std::size_t>(q.ids.back()) + 1;
    if (bound > max_feature_bound_) max_feature_bound_ = bound;
  }
  std::string key = q.HashKey();
  auto it = index_.find(key);
  if (it == index_.end()) {
    index_.emplace(std::move(key), distinct_.size());
    distinct_.push_back(q);
    counts_.push_back(count);
    sql_.push_back(std::move(sample_sql));
  } else {
    counts_[it->second] += count;
  }
  total_ += count;
}

QueryLog QueryLog::FromColumns(Vocabulary vocab,
                               std::vector<FeatureVec> vectors,
                               std::vector<std::uint64_t> counts,
                               std::vector<std::string> sample_sql) {
  LOGR_CHECK(vectors.size() == counts.size());
  LOGR_CHECK(sample_sql.empty() || sample_sql.size() == vectors.size());
  QueryLog out;
  out.vocab_ = std::move(vocab);
  out.index_.reserve(vectors.size());
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    LOGR_CHECK(counts[i] > 0);
    if (!vectors[i].ids.empty()) {
      std::size_t bound = static_cast<std::size_t>(vectors[i].ids.back()) + 1;
      if (bound > out.max_feature_bound_) out.max_feature_bound_ = bound;
    }
    auto inserted = out.index_.emplace(vectors[i].HashKey(), i);
    LOGR_CHECK_MSG(inserted.second, "duplicate vector in columns");
    out.total_ += counts[i];
  }
  out.distinct_ = std::move(vectors);
  out.counts_ = std::move(counts);
  out.sql_ = std::move(sample_sql);
  out.sql_.resize(out.distinct_.size());
  return out;
}

std::uint64_t QueryLog::MaxMultiplicity() const {
  std::uint64_t best = 0;
  for (std::uint64_t c : counts_) best = std::max(best, c);
  return best;
}

double QueryLog::Probability(std::size_t i) const {
  LOGR_CHECK(i < counts_.size() && total_ > 0);
  return static_cast<double>(counts_[i]) / static_cast<double>(total_);
}

std::uint64_t QueryLog::CountContaining(const FeatureVec& b) const {
  std::uint64_t count = 0;
  for (std::size_t i = 0; i < distinct_.size(); ++i) {
    if (distinct_[i].ContainsAll(b)) count += counts_[i];
  }
  return count;
}

double QueryLog::Marginal(const FeatureVec& b) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(CountContaining(b)) /
         static_cast<double>(total_);
}

double QueryLog::EmpiricalEntropy() const {
  if (total_ == 0) return 0.0;
  double h = 0.0;
  for (std::uint64_t c : counts_) {
    double p = static_cast<double>(c) / static_cast<double>(total_);
    h -= p * std::log(p);
  }
  return h;
}

double QueryLog::AvgFeaturesPerQuery() const {
  if (total_ == 0) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < distinct_.size(); ++i) {
    acc += static_cast<double>(counts_[i]) *
           static_cast<double>(distinct_[i].size());
  }
  return acc / static_cast<double>(total_);
}

QueryLog QueryLog::Subset(const std::vector<std::size_t>& indices) const {
  QueryLog out;
  out.vocab_ = vocab_;
  for (std::size_t i : indices) {
    LOGR_CHECK(i < distinct_.size());
    out.Add(distinct_[i], counts_[i], sql_[i]);
  }
  return out;
}

}  // namespace logr
