#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "util/flags.h"
#include "util/prng.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace logr {
namespace {

TEST(Pcg32Test, DeterministicAcrossInstances) {
  Pcg32 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Pcg32Test, DifferentSeedsDiffer) {
  Pcg32 a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Pcg32Test, NextBoundedInRange) {
  Pcg32 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Pcg32Test, NextDoubleInUnitInterval) {
  Pcg32 rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Pcg32Test, NextDoubleMeanNearHalf) {
  Pcg32 rng(11);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Pcg32Test, GaussianMoments) {
  Pcg32 rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Pcg32Test, BernoulliRate) {
  Pcg32 rng(15);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Pcg32Test, DiscreteRespectsWeights) {
  Pcg32 rng(17);
  std::vector<double> w = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++counts[rng.NextDiscrete(w)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / n, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Pcg32Test, ShufflePreservesElements) {
  Pcg32 rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(ZipfSamplerTest, ProbabilitiesSumToOne) {
  ZipfSampler z(100, 1.0);
  double total = 0.0;
  for (std::size_t r = 0; r < 100; ++r) total += z.Probability(r);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, ProbabilitiesDecrease) {
  ZipfSampler z(50, 1.2);
  for (std::size_t r = 1; r < 50; ++r) {
    EXPECT_LT(z.Probability(r), z.Probability(r - 1));
  }
}

TEST(ZipfSamplerTest, SampleMatchesProbability) {
  ZipfSampler z(10, 1.0);
  Pcg32 rng(21);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(&rng)];
  for (std::size_t r = 0; r < 10; ++r) {
    EXPECT_NEAR(static_cast<double>(counts[r]) / n, z.Probability(r), 0.01);
  }
}

TEST(StringUtilTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(StrFormat("%.2f", 1.2345), "1.23");
}

TEST(TablePrinterTest, FormatsAlignedColumns) {
  TablePrinter t({"col_a", "b"});
  t.AddRow({"1", "long_value"});
  t.AddRow({"2222222", "x"});
  // Just exercise Print to a memstream-like file.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  t.Print(f);
  std::fseek(f, 0, SEEK_SET);
  char buf[256] = {0};
  std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  std::string out(buf, n);
  EXPECT_NE(out.find("col_a"), std::string::npos);
  EXPECT_NE(out.find("long_value"), std::string::npos);
}

TEST(ParseUint64Test, DigitsOnly) {
  std::uint64_t v = 99;
  for (const char* bad : {"", " 7", "7 ", "+7", "-7", "7x", "0x10", "1e3"}) {
    EXPECT_FALSE(ParseUint64(bad, 0, UINT64_MAX, &v)) << '"' << bad << '"';
  }
  EXPECT_EQ(v, 99u);  // untouched on failure
  ASSERT_TRUE(ParseUint64("007", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, 7u);
  ASSERT_TRUE(ParseUint64("18446744073709551615", 0, UINT64_MAX, &v));
  EXPECT_EQ(v, UINT64_MAX);
  // ERANGE: one past UINT64_MAX, and far past it.
  EXPECT_FALSE(ParseUint64("18446744073709551616", 0, UINT64_MAX, &v));
  EXPECT_FALSE(ParseUint64("99999999999999999999999", 0, UINT64_MAX, &v));
}

TEST(ParseUint64Test, RangeEdges) {
  std::uint64_t v = 0;
  EXPECT_FALSE(ParseUint64("2", 3, 9, &v));   // min - 1
  EXPECT_TRUE(ParseUint64("3", 3, 9, &v));    // min
  EXPECT_TRUE(ParseUint64("9", 3, 9, &v));    // max
  EXPECT_FALSE(ParseUint64("10", 3, 9, &v));  // max + 1
}

/// Runs ParseFlags over `args` with one flag of each kind.
struct FlagFixture {
  int count = 5;
  std::size_t size = 0;
  std::uint64_t seed = 0;
  std::optional<std::size_t> given;
  std::string name = "default";
  bool on = false;
  std::vector<std::string> positional;
  std::string error;

  bool Parse(const std::vector<std::string>& args, std::size_t min_pos = 0,
             std::size_t max_pos = 1, bool verbatim_tail = false) {
    return ParseFlags(args,
                      {{"--count", &count, 1, 100},
                       {"--size", &size},
                       {"--seed", &seed},
                       {"--given", &given},
                       {"--name", &name},
                       {"--on", &on}},
                      {&positional, min_pos, max_pos, verbatim_tail}, &error);
  }
};

TEST(FlagsTest, IntegerBoundsAndDefaults) {
  FlagFixture f;
  ASSERT_TRUE(f.Parse({})) << f.error;
  EXPECT_EQ(f.count, 5);
  EXPECT_FALSE(f.given.has_value());
  EXPECT_FALSE(f.on);
  EXPECT_EQ(f.name, "default");

  EXPECT_FALSE(FlagFixture().Parse({"--count", "0"}));    // min - 1
  EXPECT_TRUE(FlagFixture().Parse({"--count", "1"}));     // min
  EXPECT_TRUE(FlagFixture().Parse({"--count", "100"}));   // max
  EXPECT_FALSE(FlagFixture().Parse({"--count", "101"}));  // max + 1
  for (const char* bad : {"", " 3", "+3", "-3", "3x", "18446744073709551616"}) {
    FlagFixture g;
    EXPECT_FALSE(g.Parse({"--count", bad})) << '"' << bad << '"';
    EXPECT_EQ(g.count, 5);
    EXPECT_EQ(g.error, "--count: expected an integer in [1, 100], got \"" +
                           std::string(bad) + "\"");
  }
}

TEST(FlagsTest, TargetTypeCapsTheRange) {
  // An int flag stops at INT_MAX before narrowing; a u64 flag takes the
  // full range.
  FlagFixture f;
  ASSERT_TRUE(f.Parse({"--given", "7", "--seed", "18446744073709551615",
                       "--size", "18446744073709551615"}))
      << f.error;
  EXPECT_EQ(f.given, std::optional<std::size_t>(7));
  EXPECT_EQ(f.seed, UINT64_MAX);
  EXPECT_EQ(f.size, SIZE_MAX);

  int wide = 0;
  std::string error;
  const std::vector<Flag> flags = {{"--wide", &wide}};
  EXPECT_TRUE(ParseFlags({"--wide", "2147483647"}, flags, {}, &error));
  EXPECT_EQ(wide, INT_MAX);
  EXPECT_FALSE(ParseFlags({"--wide", "2147483648"}, flags, {}, &error));
  EXPECT_FALSE(ParseFlags({"--wide", "4294967297"}, flags, {}, &error));
  EXPECT_EQ(error,
            "--wide: expected an integer in [0, 2147483647], got "
            "\"4294967297\"");
  EXPECT_EQ(wide, INT_MAX);
}

TEST(FlagsTest, MissingValueAndUnknownFlag) {
  FlagFixture f;
  EXPECT_FALSE(f.Parse({"--count"}));
  EXPECT_EQ(f.error, "--count: expected an integer in [1, 100], got none");
  EXPECT_FALSE(f.Parse({"--name"}));
  EXPECT_EQ(f.error, "--name: expected a value, got none");
  EXPECT_FALSE(f.Parse({"--bogus", "1"}));
  EXPECT_EQ(f.error, "unknown flag \"--bogus\"");
  EXPECT_FALSE(f.Parse({"-"}));
  EXPECT_FALSE(f.Parse({""}));
}

TEST(FlagsTest, StringAndPresenceFlags) {
  FlagFixture f;
  // A value is taken verbatim, even when it looks like a flag.
  ASSERT_TRUE(f.Parse({"--name", "--on", "--on", "--name", "x"})) << f.error;
  EXPECT_EQ(f.name, "x");  // the last occurrence wins
  EXPECT_TRUE(f.on);
  FlagFixture g;
  ASSERT_TRUE(g.Parse({"--name", "-1"})) << g.error;
  EXPECT_EQ(g.name, "-1");
}

TEST(FlagsTest, PositionalCollection) {
  FlagFixture f;
  ASSERT_TRUE(f.Parse({"a", "--on", "b", "--count", "3"}, 0, 2)) << f.error;
  EXPECT_EQ(f.positional, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(f.on);
  EXPECT_EQ(f.count, 3);

  FlagFixture one;
  EXPECT_FALSE(one.Parse({"a.sql", "b.sql"}));
  EXPECT_EQ(one.error, "unexpected argument \"b.sql\" (at most 1)");
  FlagFixture none;
  EXPECT_FALSE(none.Parse({}, 1, 1));
  EXPECT_EQ(none.error, "expected at least 1 argument, got 0");

  // After the first positional of a verbatim tail, nothing is a flag.
  FlagFixture tail;
  ASSERT_TRUE(tail.Parse({"--on", "ep", "--count", "-1", ""}, 2, SIZE_MAX,
                         /*verbatim_tail=*/true))
      << tail.error;
  EXPECT_EQ(tail.positional,
            (std::vector<std::string>{"ep", "--count", "-1", ""}));
  EXPECT_TRUE(tail.on);
  EXPECT_EQ(tail.count, 5);
}

}  // namespace
}  // namespace logr
