// Spectral clustering (Ng-Jordan-Weiss style, paper Sec. 6.1 [31]).
//
// Pipeline: condensed pairwise distances under the chosen metric, which
// Cluster builds -> Gaussian affinity with a median-distance bandwidth,
// written over the distances in place -> symmetric-normalized affinity
// D^{-1/2} W D^{-1/2} as a mat-vec over that store (no N x N matrix) ->
// k leading eigenvectors via Lanczos -> row-normalized embedding ->
// weighted k-means.
#ifndef LOGR_CLUSTER_SPECTRAL_H_
#define LOGR_CLUSTER_SPECTRAL_H_

#include "cluster/distance.h"
#include "cluster/kmeans.h"

namespace logr {

/// Spectral clustering into min(k, N) clusters of the N points whose
/// pairwise distances `distances` holds, in place on that store (move it
/// in). `pool` (not null) runs every parallel stage.
ClusteringResult SpectralCluster(CondensedDistances distances,
                                 const std::vector<double>& weights,
                                 std::size_t k, std::uint64_t seed, int n_init,
                                 ThreadPool* pool);

/// Median nonzero off-diagonal distance — the Gaussian bandwidth.
/// Returns 1.0 when every pairwise distance is zero. The gather runs
/// row-parallel over the upper triangle into precomputed offsets, so the
/// collected multiset (and therefore the median) is identical for any
/// pool size.
double MedianNonzeroDistance(const CondensedDistances& dist, ThreadPool* pool);

/// Overwrites every distance d in `dist` with its Gaussian affinity
/// exp(-d^2 / (2 sigma^2)), row-parallel.
void GaussianKernelInPlace(CondensedDistances* dist, double sigma,
                           ThreadPool* pool);

/// Rows per parallel task of UnitDiagonalMatVec.
inline constexpr std::size_t kMatVecTile = 64;

/// y = A x for the symmetric A with unit diagonal and `a`'s entries off
/// it. Row i sums A(i, j) * x[j] in ascending j from 0.0, as the dense
/// MatVec does, so y is bit-identical to the dense product at
/// any pool size. Each tile reads its j < i half as contiguous runs of
/// the store rows above it.
void UnitDiagonalMatVec(const CondensedDistances& a, const Vector& x,
                        Vector* y, ThreadPool* pool);

}  // namespace logr

#endif  // LOGR_CLUSTER_SPECTRAL_H_
