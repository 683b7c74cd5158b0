// The compressed-workload input object: a bag of feature vectors.
//
// Paper Section 2.3.1 treats the log as the distribution p(Q | L) of
// queries drawn uniformly from the log. All algorithms downstream operate
// on the *distinct* vectors with multiplicities — the paper's own logs
// collapse from 1.2M queries to at most 1,712 distinct vectors after
// constant removal (Table 1), and the clustering / encoding experiments
// run on that distinct set.
//
// The log statistics every encoder and oracle reads (the marginal
// p(Q ⊇ b) of Sec. 6.2, the empirical entropy H(ρ*) of Sec. 5.2, and
// the Table-1 counters) live here and only here. The mmap reader and
// LogView serve columns; a caller that needs a statistic of a view
// materializes it first (LogView::Materialize / MaterializeSubset).
#ifndef LOGR_WORKLOAD_QUERY_LOG_H_
#define LOGR_WORKLOAD_QUERY_LOG_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "workload/feature.h"
#include "workload/feature_vec.h"

namespace logr {

/// A bag of queries encoded as feature vectors, with the interning
/// vocabulary that maps ids back to SQL structural elements.
class QueryLog {
 public:
  QueryLog() = default;

  /// Adds `count` occurrences of vector `q`. `sample_sql` (optional) is
  /// retained for the first occurrence, for interpretability output.
  /// `count == 0` is a no-op: recording zero occurrences carries no
  /// information, and a zero-count distinct vector would corrupt
  /// Probability / entropy downstream. CHECK-fails when the total
  /// multiplicity would pass UINT64_MAX.
  void Add(const FeatureVec& q, std::uint64_t count = 1,
           std::string sample_sql = {});

  /// Bulk-assembles a log from parallel columns of *distinct* vectors —
  /// the path LogView::MaterializeSubset copies a view's rows through,
  /// which skips the per-Add dedup probe ordering. `sample_sql` may be
  /// empty or one entry per vector. CHECK-fails on duplicate vectors,
  /// zero counts, or column length mismatches; callers feeding untrusted
  /// data must validate first (MmapQueryLog does).
  static QueryLog FromColumns(Vocabulary vocab,
                              std::vector<FeatureVec> vectors,
                              std::vector<std::uint64_t> counts,
                              std::vector<std::string> sample_sql);

  /// Number of distinct vectors.
  std::size_t NumDistinct() const { return distinct_.size(); }

  /// Total number of queries (multiplicity-weighted).
  std::uint64_t TotalQueries() const { return total_; }

  /// Largest multiplicity of any distinct vector.
  std::uint64_t MaxMultiplicity() const;

  /// All distinct vectors, indexed as Vector(i).
  const std::vector<FeatureVec>& DistinctVectors() const { return distinct_; }

  /// Distinct vector / multiplicity / representative SQL by index.
  const FeatureVec& Vector(std::size_t i) const { return distinct_[i]; }
  std::uint64_t Multiplicity(std::size_t i) const { return counts_[i]; }
  const std::string& SampleSql(std::size_t i) const { return sql_[i]; }

  /// Probability p(q_i | L) of drawing distinct vector i.
  double Probability(std::size_t i) const;

  /// Number of times pattern `b` is contained in log queries:
  /// Γ_b(L) = |{ q in L : b ⊆ q }| (Sec. 6.2). O(#distinct).
  std::uint64_t CountContaining(const FeatureVec& b) const;

  /// Marginal p(Q ⊇ b | L).
  double Marginal(const FeatureVec& b) const;

  /// Entropy H(ρ*) of the empirical query distribution, in nats.
  double EmpiricalEntropy() const;

  /// The interning vocabulary. Mutable access is used while loading.
  Vocabulary* mutable_vocabulary() { return &vocab_; }
  const Vocabulary& vocabulary() const { return vocab_; }

  /// Size of the feature universe: interned vocabulary size, or (for
  /// logs assembled from raw vectors without a vocabulary) one past the
  /// largest feature id ever added.
  std::size_t NumFeatures() const {
    return vocab_.size() > max_feature_bound_ ? vocab_.size()
                                              : max_feature_bound_;
  }

  /// Multiplicity-weighted mean of per-query feature counts.
  double AvgFeaturesPerQuery() const;

 private:
  Vocabulary vocab_;
  std::vector<FeatureVec> distinct_;
  std::vector<std::uint64_t> counts_;
  std::vector<std::string> sql_;
  std::unordered_map<std::string, std::size_t> index_;
  std::uint64_t total_ = 0;
  std::size_t max_feature_bound_ = 0;  // max added feature id + 1
};

}  // namespace logr

#endif  // LOGR_WORKLOAD_QUERY_LOG_H_
