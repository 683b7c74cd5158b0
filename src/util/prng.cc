#include "util/prng.h"

#include <cmath>

#include "util/check.h"

namespace logr {

Pcg32::Pcg32(std::uint64_t seed, std::uint64_t stream)
    : state_(0u), inc_((stream << 1u) | 1u) {
  Next();
  state_ += seed;
  Next();
}

std::uint32_t Pcg32::Next() {
  std::uint64_t oldstate = state_;
  state_ = oldstate * 6364136223846793005ULL + inc_;
  std::uint32_t xorshifted =
      static_cast<std::uint32_t>(((oldstate >> 18u) ^ oldstate) >> 27u);
  std::uint32_t rot = static_cast<std::uint32_t>(oldstate >> 59u);
  return (xorshifted >> rot) | (xorshifted << ((-rot) & 31u));
}

std::uint32_t Pcg32::NextBounded(std::uint32_t bound) {
  LOGR_DCHECK(bound > 0);
  // Rejection sampling to remove modulo bias.
  std::uint32_t threshold = (-bound) % bound;
  for (;;) {
    std::uint32_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Pcg32::NextDouble() {
  return Next() * (1.0 / 4294967296.0);
}

double Pcg32::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller transform; guard against log(0).
  double u1 = NextDouble();
  while (u1 <= 1e-12) u1 = NextDouble();
  double u2 = NextDouble();
  double mag = std::sqrt(-2.0 * std::log(u1));
  double z0 = mag * std::cos(2.0 * M_PI * u2);
  double z1 = mag * std::sin(2.0 * M_PI * u2);
  cached_gaussian_ = z1;
  has_cached_gaussian_ = true;
  return z0;
}

bool Pcg32::NextBernoulli(double p) {
  return NextDouble() < p;
}

std::size_t Pcg32::NextDiscrete(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  if (total <= 0.0) return 0;
  double target = NextDouble() * total;
  double acc = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (weights[i] > 0.0) {
      acc += weights[i];
      if (target < acc) return i;
    }
  }
  return weights.size() - 1;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) {
  LOGR_CHECK(n > 0);
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    acc += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = acc;
  }
  for (std::size_t r = 0; r < n; ++r) cdf_[r] /= acc;
}

std::size_t ZipfSampler::Sample(Pcg32* rng) const {
  double u = rng->NextDouble();
  // Binary search for the first rank whose CDF exceeds u.
  std::size_t lo = 0, hi = cdf_.size() - 1;
  while (lo < hi) {
    std::size_t mid = (lo + hi) / 2;
    if (cdf_[mid] < u) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double ZipfSampler::Probability(std::size_t r) const {
  LOGR_DCHECK(r < cdf_.size());
  return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

}  // namespace logr
