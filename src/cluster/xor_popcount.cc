#include "cluster/xor_popcount.h"

namespace logr {

void XorPopcountAccum(const std::uint64_t* row, const std::uint32_t* nzw,
                      std::size_t n_nzw, const std::uint64_t* cols,
                      const std::uint8_t* pcc, std::size_t stride,
                      std::int32_t* acc, std::size_t len) {
  for (std::size_t t = 0; t < n_nzw; ++t) {
    const std::size_t off = static_cast<std::size_t>(nzw[t]) * stride;
    const std::uint64_t riw = row[nzw[t]];
    const std::uint64_t* col = cols + off;
    const std::uint8_t* pc = pcc + off;
    for (std::size_t j = 0; j < len; ++j) {
      acc[j] += __builtin_popcountll(riw ^ col[j]) -
                static_cast<std::int32_t>(pc[j]);
    }
  }
}

}  // namespace logr
