#include "maxent/signature_space.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace logr {

SignatureSpace::SignatureSpace(std::vector<FeatureVec> patterns,
                               std::size_t n_features)
    : patterns_(std::move(patterns)), n_features_(n_features) {
  LOGR_CHECK(patterns_.size() <= kMaxPatterns);
  for (const FeatureVec& b : patterns_) {
    for (FeatureId f : b.ids) {
      LOGR_CHECK(f < n_features_);
      support_.push_back(f);
    }
  }
  std::sort(support_.begin(), support_.end());
  support_.erase(std::unique(support_.begin(), support_.end()),
                 support_.end());
  words_ = (support_.size() + 63) / 64;
  masks_.assign(patterns_.size() * words_, 0);
  for (std::size_t j = 0; j < patterns_.size(); ++j) {
    std::uint64_t* mask = masks_.data() + j * words_;
    for (FeatureId f : patterns_[j].ids) {
      const std::size_t bit = static_cast<std::size_t>(
          std::lower_bound(support_.begin(), support_.end(), f) -
          support_.begin());
      mask[bit / 64] |= std::uint64_t(1) << (bit % 64);
    }
  }
  exact_fraction_ = ComputeExactFractions(FeatureVec());
}

std::vector<double> SignatureSpace::ComputeExactFractions(
    const FeatureVec& extra) const {
  const std::size_t m = patterns_.size();
  const std::size_t classes = std::size_t(1) << m;
  const std::size_t w = words_;

  // atleast[S] = 2^{-| union of patterns in S, plus `extra` |}
  //            = fraction of space containing every pattern in S (and
  //              `extra`).
  //
  // Row k of `unions` holds the support mask of the last class visited
  // with k patterns; row 0 is `extra`'s share of the support, and
  // `outside` counts its ids beyond it. Class S extends S & (S-1) (S
  // minus its lowest pattern, one row up) by that pattern's mask. In
  // ascending order, every class between S & (S-1) and S has more
  // patterns than S & (S-1), so its row is still intact when S reads it.
  std::vector<std::uint64_t> unions((m + 1) * w, 0);
  std::size_t outside = 0;
  for (FeatureId f : extra.ids) {
    auto it = std::lower_bound(support_.begin(), support_.end(), f);
    if (it == support_.end() || *it != f) {
      ++outside;
      continue;
    }
    const std::size_t bit = static_cast<std::size_t>(it - support_.begin());
    unions[bit / 64] |= std::uint64_t(1) << (bit % 64);
  }
  std::vector<double> value(classes);
  std::size_t extra_bits = outside;
  for (std::size_t k = 0; k < w; ++k) {
    extra_bits += static_cast<std::size_t>(__builtin_popcountll(unions[k]));
  }
  value[0] = std::exp2(-static_cast<double>(extra_bits));
  for (std::size_t s = 1; s < classes; ++s) {
    const std::size_t level =
        static_cast<std::size_t>(__builtin_popcountll(s));
    const std::uint64_t* parent = unions.data() + (level - 1) * w;
    const std::uint64_t* mask =
        masks_.data() + static_cast<std::size_t>(__builtin_ctzll(s)) * w;
    std::uint64_t* u = unions.data() + level * w;
    std::size_t bits = outside;
    for (std::size_t k = 0; k < w; ++k) {
      u[k] = parent[k] | mask[k];
      bits += static_cast<std::size_t>(__builtin_popcountll(u[k]));
    }
    value[s] = std::exp2(-static_cast<double>(bits));
  }

  // Möbius inversion on the subset lattice: after processing bit j,
  // value[S] counts vectors that contain all patterns of S and none of
  // the patterns in bit positions <= j outside S. Standard superset
  // subtraction transform, done one dimension at a time:
  //   exact[S] = atleast[S] - atleast[S ∪ {j}]   (per dimension j ∉ S)
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t bit = std::size_t(1) << j;
    for (std::size_t s = 0; s < classes; ++s) {
      if (!(s & bit)) value[s] -= value[s | bit];
    }
  }
  // Clamp tiny negative rounding residue.
  for (double& v : value) {
    if (v < 0.0 && v > -1e-12) v = 0.0;
    LOGR_DCHECK(v >= -1e-9);
    if (v < 0.0) v = 0.0;
  }
  return value;
}

double SignatureSpace::LogClassSize(std::uint32_t s) const {
  double frac = exact_fraction_[s];
  LOGR_CHECK(frac > 0.0);
  return std::log(frac) +
         static_cast<double>(n_features_) * std::log(2.0);
}

std::uint32_t SignatureSpace::SignatureOf(const FeatureVec& q) const {
  std::uint32_t s = 0;
  for (std::size_t j = 0; j < patterns_.size(); ++j) {
    if (q.ContainsAll(patterns_[j])) s |= (std::uint32_t(1) << j);
  }
  return s;
}

std::vector<double> SignatureSpace::ClassFractionsContaining(
    const FeatureVec& b) const {
  return ComputeExactFractions(b);
}

}  // namespace logr
