#include "util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

namespace lexfor {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformStaysInBound) {
  Rng rng{7};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng{9};
  std::array<int, 8> hits{};
  for (int i = 0; i < 8000; ++i) ++hits[rng.uniform(8)];
  for (int h : hits) EXPECT_GT(h, 800);  // ~1000 expected each
}

TEST(RngTest, UniformInIsInclusive) {
  Rng rng{11};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_in(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo = saw_lo || v == -3;
    saw_hi = saw_hi || v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, Uniform01InHalfOpenInterval) {
  Rng rng{13};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng{17};
  int heads = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) heads += rng.bernoulli(0.3);
  const double rate = static_cast<double>(heads) / kN;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, BernoulliDegenerateCases) {
  Rng rng{19};
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng{23};
  double sum = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  EXPECT_NEAR(sum / kN, 5.0, 0.15);
}

TEST(RngTest, NormalHasRequestedMoments) {
  Rng rng{29};
  double sum = 0, sq = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const double x = rng.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.25);
}

TEST(RngTest, ParetoRespectsScale) {
  Rng rng{31};
  for (int i = 0; i < 10000; ++i) {
    EXPECT_GE(rng.pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, PoissonHasRequestedMean) {
  Rng rng{37};
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.poisson(4.0));
  EXPECT_NEAR(sum / kN, 4.0, 0.15);
}

TEST(RngTest, GeometricMeanApproximatelyCorrect) {
  Rng rng{41};
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.geometric(0.25));
  // Mean failures before success = (1-p)/p = 3.
  EXPECT_NEAR(sum / kN, 3.0, 0.2);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent{55};
  Rng child = parent.split();
  // Child stream differs from a freshly advanced parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent() == child()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng p1{99}, p2{99};
  Rng c1 = p1.split();
  Rng c2 = p2.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(c1(), c2());
}

// Known answers, pinned from the out-of-line generator: every seeded
// simulation reproduces from these streams, so the raw outputs, the
// double conversions, the derived streams and split() must never move.
// The exponentials also hold under glibc's baseline log
// (GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA).
TEST(RngTest, RawOutputsMatchKnownAnswers) {
  struct Known {
    std::uint64_t seed;
    std::array<std::uint64_t, 4> first;
  };
  for (const Known& k :
       {Known{0, {0x99ec5f36cb75f2b4ULL, 0xbf6e1f784956452aULL,
                  0x1a5f849d4933e6e0ULL, 0x6aa594f1262d2d2cULL}},
        Known{42, {0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL,
                   0xae17533239e499a1ULL, 0xecb8ad4703b360a1ULL}},
        Known{0x9e3779b97f4a7c15ULL,
              {0x422ea740d0977210ULL, 0xe062b061b42e2928ULL,
               0x5a071fc5930841b6ULL, 0x01334ef8ed3cc2bdULL}}}) {
    Rng rng{k.seed};
    for (const std::uint64_t want : k.first) EXPECT_EQ(rng(), want) << k.seed;
  }
  // The default seed is the third one.
  Rng fallback;
  EXPECT_EQ(fallback(), 0x422ea740d0977210ULL);
}

TEST(RngTest, Uniform01AndExponentialMatchKnownBits) {
  Rng u{42};
  for (const std::uint64_t want :
       {0x3fb5780b2e0c2ec0ULL, 0x3fd84136619b444eULL, 0x3fe5c2ea66473c93ULL}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(u.uniform01()), want);
  }
  Rng e{42};
  for (const std::uint64_t want :
       {0x4003d41d16f1bc9bULL, 0x3fef0c76279dedc0ULL, 0x3fd8ada5ee606e81ULL}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(e.exponential(1.0)), want);
  }
}

TEST(RngTest, SubStreamAndSplitMatchKnownAnswers) {
  Rng stream = Rng::sub_stream(7, 3);
  for (const std::uint64_t want :
       {0x7957c3b74b90459eULL, 0x32f5b5fef980b055ULL, 0xf54ad23e63375dfeULL,
        0x177a7d2c63888ecdULL}) {
    EXPECT_EQ(stream(), want);
  }
  Rng parent{42};
  Rng child = parent.split();
  for (const std::uint64_t want :
       {0xeb238bea33a70702ULL, 0xf84f88cce10d3689ULL, 0x1b9a90cb10422ac5ULL,
        0xdcb89b398a4bc7b4ULL}) {
    EXPECT_EQ(child(), want);
  }
  // split() takes exactly two parent draws: the parent resumes at seed
  // 42's third output.
  EXPECT_EQ(parent(), 0xae17533239e499a1ULL);
  EXPECT_EQ(parent(), 0xecb8ad4703b360a1ULL);
}

TEST(RngTest, ShufflePermutesAllElements) {
  Rng rng{61};
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  auto shuffled = v;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, v);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(RngTest, ShuffleHandlesSmallContainers) {
  Rng rng{67};
  std::vector<int> empty;
  std::vector<int> one{5};
  rng.shuffle(empty);
  rng.shuffle(one);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(one, std::vector<int>{5});
}

}  // namespace
}  // namespace lexfor
