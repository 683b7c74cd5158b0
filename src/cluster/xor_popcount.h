// XOR + popcount accumulation kernel for the tiled distance sweep.
//
// The packed DistanceMatrix inner loop is, for one packed row and a
// j-slice of the word-major column planes:
//
//   acc[j] += Σ_{t < n_nzw, w = nzw[t]}
//               popcount(row[w] ^ cols[w*stride + j]) - pcc[w*stride + j]
//
// i.e. each call sweeps ALL of the row's nonzero words over the slice,
// not one word at a time: one call per (tile, row). The popcounts are
// exact integers, so the distances built from them are too.
#ifndef LOGR_CLUSTER_XOR_POPCOUNT_H_
#define LOGR_CLUSTER_XOR_POPCOUNT_H_

#include <cstdint>
#include <cstddef>

namespace logr {

/// For j in [0, len):
///   acc[j] += Σ over t in [0, n_nzw), w = nzw[t], of
///             popcount(row[w] ^ cols[w*stride + j]) - pcc[w*stride + j]
/// `cols`/`pcc` point at the j-origin of the word-0 column plane; plane
/// w lives `w*stride` further in (PackedVecPool's word-major layout).
void XorPopcountAccum(const std::uint64_t* row, const std::uint32_t* nzw,
                      std::size_t n_nzw, const std::uint64_t* cols,
                      const std::uint8_t* pcc, std::size_t stride,
                      std::int32_t* acc, std::size_t len);

// There is one kernel. These exist only for the end-to-end bench's
// `popcount_kernel` note (bench/e2e/logr_e2e.cc), which always reads
// "scalar"; delete them together with that note.
enum class PopcountKernel { kScalar };
inline PopcountKernel SelectedPopcountKernel() {
  return PopcountKernel::kScalar;
}
inline const char* PopcountKernelName(PopcountKernel) { return "scalar"; }

}  // namespace logr

#endif  // LOGR_CLUSTER_XOR_POPCOUNT_H_
