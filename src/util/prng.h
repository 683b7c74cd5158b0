// Deterministic pseudo-random number generation for reproducible experiments.
//
// All stochastic components in this repository (workload generators, k-means
// initialization, distribution sampling) draw from Pcg32 seeded explicitly,
// so every bench and test is bit-reproducible across runs and platforms.
#ifndef LOGR_UTIL_PRNG_H_
#define LOGR_UTIL_PRNG_H_

#include <cstdint>
#include <vector>

namespace logr {

/// PCG32 (Permuted Congruential Generator, XSH-RR variant).
///
/// Small, fast, statistically solid, and fully deterministic given a seed.
/// Reference: M.E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
/// Statistically Good Algorithms for Random Number Generation" (2014).
class Pcg32 {
 public:
  /// Constructs a generator from a seed and an optional stream selector.
  explicit Pcg32(std::uint64_t seed = 0x853c49e6748fea9bULL,
                 std::uint64_t stream = 0xda3e39cb94b95bdbULL);

  /// Returns the next 32 uniform random bits.
  std::uint32_t Next();

  /// Returns a uniform integer in [0, bound). Requires bound > 0.
  std::uint32_t NextBounded(std::uint32_t bound);

  /// Returns a uniform double in [0, 1).
  double NextDouble();

  /// Returns a standard normal deviate (Box-Muller, cached pair).
  double NextGaussian();

  /// Returns true with probability p.
  bool NextBernoulli(double p);

  /// Returns an index in [0, weights.size()) drawn proportionally to
  /// `weights` (need not be normalized; non-positive weights are treated
  /// as zero). Returns 0 if all weights are zero.
  std::size_t NextDiscrete(const std::vector<double>& weights);

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (std::size_t i = items->size(); i > 1; --i) {
      std::size_t j = NextBounded(static_cast<std::uint32_t>(i));
      std::swap((*items)[i - 1], (*items)[j]);
    }
  }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Samples ranks from a Zipf(s) distribution over {0, ..., n-1}.
///
/// Rank r is drawn with probability proportional to 1 / (r+1)^s. Used by the
/// workload generators to give query templates the heavily skewed
/// multiplicities reported in Table 1 of the paper (max multiplicity 48,651
/// for PocketData and 208,742 for the bank log).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);

  /// Draws one rank in [0, n).
  std::size_t Sample(Pcg32* rng) const;

  /// Probability of rank r.
  double Probability(std::size_t r) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace logr

#endif  // LOGR_UTIL_PRNG_H_
