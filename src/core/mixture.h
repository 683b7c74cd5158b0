// Naive pattern mixture encodings (paper Section 5): the log is
// partitioned, each partition is encoded naively, and encodings are
// combined with weights w_i = |L_i| / |L|.
//
// This header is also the shared materialization point for every
// compression path: batch (FromPartition) and sharded, distributed or
// offline-merged (Merge + Reconcile over per-shard mixtures). Merging
// is exact whenever the merged parts encode disjoint query populations,
// which the shard split maintains: marginals combine as
// log-size-weighted averages and the empirical entropy obeys the
// grouping property H(∪L_i) = Σ w_i·H(L_i) − Σ w_i·log w_i.
#ifndef LOGR_CORE_MIXTURE_H_
#define LOGR_CORE_MIXTURE_H_

#include <vector>

#include "core/naive_encoding.h"
#include "util/thread_pool.h"
#include "workload/log_view.h"
#include "workload/query_log.h"

namespace logr {

struct MixtureComponent {
  double weight = 0.0;           // w_i = |L_i| / |L|
  NaiveEncoding encoding;
  std::vector<std::size_t> members;  // distinct-vector indices of the log
};

class NaiveMixtureEncoding {
 public:
  NaiveMixtureEncoding() = default;

  /// Builds the mixture over a clustering `assignment` of the log's
  /// distinct vectors (values in [0, k)). The log is read through a
  /// LogView (heap QueryLog or mmap'd .logrl alike; both convert
  /// implicitly). Components encode in parallel across `pool` (nullptr
  /// = serial); the result is bit-identical for any pool size because
  /// each component accumulates in index order.
  static NaiveMixtureEncoding FromPartition(const LogView& log,
                                            const std::vector<int>& assignment,
                                            std::size_t k,
                                            ThreadPool* pool = nullptr);

  /// Assembles a mixture from pre-built components (deserialization or
  /// shard pooling). Weights should sum to ~1.
  static NaiveMixtureEncoding FromComponents(
      std::vector<MixtureComponent> components);

  /// Unions the component sets of `parts` into one mixture over the
  /// combined log. Component weights are recomputed as |L_i| / Σ|L| from
  /// the component log sizes, and the pooled components are put in
  /// canonical order, so the result is independent of the order of
  /// `parts` (shard order, summary-file order).
  static NaiveMixtureEncoding Merge(
      const std::vector<const NaiveMixtureEncoding*>& parts);

  /// Reconcile step of a sharded compression: groups the pooled
  /// components down to at most `k` by nearest-centroid-chain
  /// agglomeration — average-linkage NN-chain over the exact Euclidean
  /// distances between component centroids (the real-valued marginal
  /// vectors), with component log sizes as masses — then fuses each
  /// group into one component (exact for disjoint member populations;
  /// see the header comment). Deterministic (canonical component
  /// order plus index tie-breaks) and bit-identical for any pool size;
  /// scales to thousands of pooled components where the former
  /// re-cluster + O(P·K)-per-pass greedy polish was capped at 1024. A
  /// mixture with <= k components is returned unchanged, so reconcile
  /// is exact (the identity) whenever no pooling is needed.
  NaiveMixtureEncoding Reconcile(std::size_t k,
                                 ThreadPool* pool = nullptr) const;

  std::size_t NumComponents() const { return components_.size(); }
  const MixtureComponent& Component(std::size_t i) const {
    return components_[i];
  }

  /// Generalized Reproduction Error Σ_i w_i · e(S_i) (Sec. 5.2).
  double Error() const;

  /// Total Verbosity Σ_i |S_i| (Sec. 5.2).
  std::size_t TotalVerbosity() const;

  /// est[Γ_b(L)] = Σ_i est[Γ_b(L_i) | E_i] (Sec. 6.2).
  double EstimateCount(const FeatureVec& b) const;

  /// Mixture marginal estimate Σ_i w_i · Π_{f∈b} p_i(f).
  double EstimateMarginal(const FeatureVec& b) const;

  /// Total queries across components.
  std::uint64_t LogSize() const;

 private:
  std::vector<MixtureComponent> components_;
};

}  // namespace logr

#endif  // LOGR_CORE_MIXTURE_H_
