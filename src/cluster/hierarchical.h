// Agglomerative hierarchical clustering with average linkage
// (paper Sec. 6.1.1 [29]).
//
// Unlike k-means/spectral, the dendrogram yields *monotone* cluster
// assignments: cutting at K+1 always refines the cut at K, giving
// monotone Error/Verbosity trade-off control. Implemented with the
// nearest-neighbor-chain algorithm (O(N^2) time, exact for reducible
// linkages such as weighted average linkage).
#ifndef LOGR_CLUSTER_HIERARCHICAL_H_
#define LOGR_CLUSTER_HIERARCHICAL_H_

#include <vector>

#include "cluster/distance.h"

namespace logr {

/// A full merge tree over N leaves. Merge i combines nodes `a[i]` and
/// `b[i]` (node ids: 0..N-1 = leaves, N+i = result of merge i) at height
/// `height[i]`. Merges are recorded in NN-chain order, which is not
/// height order: consecutive heights can decrease. CutToK sorts a copy
/// of the order by height.
struct Dendrogram {
  std::size_t num_leaves = 0;
  std::vector<int> merge_a;
  std::vector<int> merge_b;
  std::vector<double> height;

  /// Flat assignment for a K-cluster cut (the K-1 highest merges undone).
  /// Cluster ids are dense in [0, K).
  std::vector<int> CutToK(std::size_t k) const;
};

/// Average-linkage agglomeration from pairwise distances. `weights`
/// (optional) give leaf masses for the weighted average.
///
/// Works in place on the condensed store it is handed (taken by value —
/// move it in; N(N−1)/2·8 bytes, the only O(N²) allocation of the fit).
/// The fast path of the NN-chain algorithm: a per-slot exact top-two
/// cache (best and second-best neighbor, kept exact by every merge)
/// makes most nearest() calls O(1); a slot is rescanned only when both
/// cached neighbors merged. Each merge's Lance-Williams pass writes
/// every updated pair once and computes the merged slot's new top two
/// on the way. Both it and the rescans walk the exact active-slot list,
/// slot a's strided column (j < a, prefetched ahead) and then its
/// contiguous row (j > a). While the fit runs, `pool`'s threads form a
/// scan team (cluster/nn_chain.h) that splits every scan of at least
/// 512 slots; shorter ones run inline (nullptr = serial).
/// Bit-identical to the serial full-matrix NN-chain the tests keep as an
/// oracle (AgglomerativeAverageLinkageReference) for every pool
/// size: the cache is exact (deterministic index tie-breaks preserved)
/// and all parallel stages write index-addressed slots with serial,
/// index-ordered reductions.
Dendrogram AgglomerativeAverageLinkage(CondensedDistances distances,
                                       const std::vector<double>& weights,
                                       ThreadPool* pool = nullptr);

}  // namespace logr

#endif  // LOGR_CLUSTER_HIERARCHICAL_H_
