// Tests for the XOR-popcount accumulation kernel
// (cluster/xor_popcount.h): the kernel must produce exactly the int32
// accumulators of an in-test per-element formula on fuzzed inputs —
// including empty word lists, empty slices, odd strides, all-zero and
// all-one columns, and saturated popcounts. A final metric-level pass
// checks that packed distance matrices stay bit-identical to the sparse
// merge kernel for all six metrics.
#include <cstdint>
#include <vector>

#include "cluster/distance.h"
#include "cluster/xor_popcount.h"
#include "gtest/gtest.h"
#include "util/prng.h"
#include "workload/feature_vec.h"

namespace logr {
namespace {

/// One kernel input: a packed row, its nonzero-word list, and a
/// word-major column-plane slice of `len` accumulator lanes laid out
/// with the given stride.
struct KernelInput {
  std::vector<std::uint64_t> row;   // n_words dense row words
  std::vector<std::uint32_t> nzw;   // sorted word indices to visit
  std::vector<std::uint64_t> cols;  // n_words * stride column words
  std::vector<std::uint8_t> pcc;    // n_words * stride popcount bytes
  std::vector<std::int32_t> acc;    // len initial accumulators
  std::size_t stride = 0;
  std::size_t len = 0;
};

/// The kernel's contract, one element at a time:
///   acc[j] += popcount(row[w] ^ cols[w*stride+j]) - pcc[w*stride+j]
/// for every visited word w.
std::vector<std::int32_t> ExpectedAccumulators(const KernelInput& in) {
  std::vector<std::int32_t> want = in.acc;
  for (std::size_t j = 0; j < in.len; ++j) {
    for (std::uint32_t w : in.nzw) {
      const std::size_t k = w * in.stride + j;
      want[j] += __builtin_popcountll(in.row[w] ^ in.cols[k]) -
                 static_cast<std::int32_t>(in.pcc[k]);
    }
  }
  return want;
}

void ExpectKernelMatchesFormula(const KernelInput& in) {
  std::vector<std::int32_t> got = in.acc;
  XorPopcountAccum(in.row.data(), in.nzw.data(), in.nzw.size(), in.cols.data(),
                   in.pcc.data(), in.stride, got.data(), in.len);
  const std::vector<std::int32_t> want = ExpectedAccumulators(in);
  ASSERT_EQ(want, got) << "len " << in.len << " stride " << in.stride;
}

std::uint64_t RandomWord(Pcg32* rng) {
  return (static_cast<std::uint64_t>(rng->Next()) << 32) | rng->Next();
}

KernelInput FuzzedInput(std::size_t len, std::size_t n_words,
                        std::size_t n_nzw, Pcg32* rng) {
  KernelInput in;
  in.len = len;
  // Strides larger than len exercise the plane layout (real pools use
  // stride == row count while the kernel sees a j slice of it).
  in.stride = len + rng->NextBounded(9);
  if (in.stride == 0) in.stride = 1;
  in.row.resize(n_words);
  for (std::uint64_t& w : in.row) w = RandomWord(rng);
  for (std::size_t w = 0; w < n_words && in.nzw.size() < n_nzw; ++w) {
    if (rng->NextBounded(n_words) < n_nzw) {
      in.nzw.push_back(static_cast<std::uint32_t>(w));
    }
  }
  in.cols.resize(n_words * in.stride);
  for (std::uint64_t& w : in.cols) w = RandomWord(rng);
  in.pcc.resize(n_words * in.stride);
  for (std::uint8_t& p : in.pcc) {
    p = static_cast<std::uint8_t>(rng->NextBounded(65));
  }
  in.acc.resize(len);
  for (std::int32_t& a : in.acc) {
    a = static_cast<std::int32_t>(rng->NextBounded(1 << 20)) - (1 << 19);
  }
  return in;
}

TEST(XorPopcountKernelTest, FuzzedEquivalence) {
  Pcg32 rng(20260808);
  // Odd and even lengths, the empty slice, and long tails past the
  // 128-wide tile edge.
  const std::size_t lengths[] = {0,  1,  2,  3,  7,  8,  9,  15, 16,
                                 17, 24, 31, 33, 63, 64, 100, 128, 257};
  for (std::size_t len : lengths) {
    for (int round = 0; round < 6; ++round) {
      const std::size_t n_words = 1 + rng.NextBounded(40);
      const std::size_t n_nzw = rng.NextBounded(n_words + 1);
      ExpectKernelMatchesFormula(FuzzedInput(len, n_words, n_nzw, &rng));
    }
  }
}

TEST(XorPopcountKernelTest, EmptyWordList) {
  Pcg32 rng(11);
  KernelInput in = FuzzedInput(40, 8, 0, &rng);
  in.nzw.clear();
  // No visited words: the kernel must leave the accumulators alone.
  std::vector<std::int32_t> got = in.acc;
  XorPopcountAccum(in.row.data(), in.nzw.data(), 0, in.cols.data(),
                   in.pcc.data(), in.stride, got.data(), in.len);
  EXPECT_EQ(got, in.acc);
  ExpectKernelMatchesFormula(in);
}

TEST(XorPopcountKernelTest, DegenerateShapes) {
  const std::size_t lengths[] = {1, 7, 8, 9, 16, 17, 40};
  for (std::size_t len : lengths) {
    for (int shape = 0; shape < 3; ++shape) {
      KernelInput in;
      in.len = len;
      in.stride = len;
      in.row.assign(4, shape == 0 ? ~0ull
                                  : (shape == 1 ? 0x5555555555555555ull : 0));
      in.nzw = {0, 1, 2, 3};
      switch (shape) {
        case 0:  // All-zero columns against all-ones words: diff == 64.
          in.cols.assign(4 * len, 0);
          in.pcc.assign(4 * len, 0);
          break;
        case 1:  // Identical words: diff == 0, acc moves by -pcc.
          in.cols.assign(4 * len, 0x5555555555555555ull);
          in.pcc.assign(4 * len, 32);
          break;
        default:  // Saturated columns and popcounts.
          in.cols.assign(4 * len, ~0ull);
          in.pcc.assign(4 * len, 64);
          break;
      }
      in.acc.assign(len, 0);
      ExpectKernelMatchesFormula(in);
    }
  }
}

// ------------------------------------------------- metric-level checks

std::vector<FeatureVec> FuzzedVectors(std::size_t count, std::size_t n,
                                      Pcg32* rng) {
  std::vector<FeatureVec> vecs;
  vecs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::vector<FeatureId> ids;
    for (std::size_t f = 0; f < n; ++f) {
      if (rng->NextDouble() < 0.15) ids.push_back(static_cast<FeatureId>(f));
    }
    vecs.emplace_back(std::move(ids));
  }
  return vecs;
}

TEST(XorPopcountKernelTest, AllSixMetricsBitIdenticalToMergeKernel) {
  Pcg32 rng(7);
  // 200 features spans several u64 words without being a multiple of
  // 64; a few empty and duplicate vectors land in the mix via fuzz.
  const std::size_t n = 200;
  std::vector<FeatureVec> vecs = FuzzedVectors(60, n, &rng);
  vecs.emplace_back(std::vector<FeatureId>{});         // empty vector
  vecs.push_back(vecs[0]);                             // exact duplicate
  const Metric metrics[] = {Metric::kEuclidean, Metric::kManhattan,
                            Metric::kMinkowski, Metric::kHamming,
                            Metric::kChebyshev, Metric::kCanberra};
  for (Metric m : metrics) {
    DistanceSpec spec;
    spec.metric = m;
    const Matrix packed = DistanceMatrix(vecs, n, spec);
    const Matrix merge = DistanceMatrixMerge(vecs, n, spec, nullptr);
    ASSERT_EQ(packed.rows(), merge.rows());
    for (std::size_t i = 0; i < packed.rows(); ++i) {
      for (std::size_t j = 0; j < packed.cols(); ++j) {
        ASSERT_EQ(packed(i, j), merge(i, j))
            << spec.Name() << " (" << i << ", " << j << ")";
      }
    }
  }
}

}  // namespace
}  // namespace logr
