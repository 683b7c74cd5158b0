// Test-only reference kernels the shipped clustering kernels are held
// bit-identical to. Linked into fast_cluster_test and micro_core through
// the logr_oracles library; not part of `logr`.
#ifndef LOGR_ORACLES_HIERARCHICAL_REFERENCE_H_
#define LOGR_ORACLES_HIERARCHICAL_REFERENCE_H_

#include <vector>

#include "cluster/distance.h"
#include "cluster/hierarchical.h"

namespace logr {

/// The original serial NN-chain over a full matrix (full nearest scans,
/// no cache; expands `distances` into an N²·8-byte working copy). The
/// bit-identity reference for AgglomerativeAverageLinkage.
Dendrogram AgglomerativeAverageLinkageReference(
    const CondensedDistances& distances, const std::vector<double>& weights);

}  // namespace logr

#endif  // LOGR_ORACLES_HIERARCHICAL_REFERENCE_H_
