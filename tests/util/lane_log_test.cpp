// The owned log (util/lane_log.h) against the long-double log, and its
// lanes against its scalar form.  util::log must stay within 1 ULP of
// logl over more than 20M inputs: uniforms of the form j 2^-53 (every
// binade the Rng's uniforms reach), the edges, powers of two and random
// normals.  Every lane this build and host run must return util::log's
// bits on all of them, and a golden digest pins util::log's bits over
// 1M fixed inputs, so every host and build diffs against the same ones.

#include "util/lane_log.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace lexfor::util {
namespace {

struct Lane {
  std::string name;
  LaneLog log;
};

std::vector<Lane> lanes() {
  std::vector<Lane> out{{"baseline", &lane_log_baseline}};
  if (const LaneLog avx2 = lane_log_avx2()) out.push_back({"avx2", avx2});
  return out;
}

// |got - ln x| in units of the last place of ln x's binade, ln x taken
// from logl.
double ulp_error(double got, double x) {
  const long double ref = std::log(static_cast<long double>(x));
  int e = 0;
  (void)std::frexp(ref, &e);  // |ref| in [2^(e-1), 2^e)
  return static_cast<double>(
      std::fabs(static_cast<long double>(got) - ref) /
      std::ldexp(1.0L, e - 53));
}

// Pads to a whole number of blocks with a harmless input.
void pad(std::vector<double>& xs) {
  while (xs.size() % kLaneLogBlock != 0) xs.push_back(0.5);
}

// The worst ULP error of util::log over xs (x != 1), after checking that
// every lane returns util::log's bits on each of them.
double worst_ulp_and_lanes_agree(const std::vector<double>& xs) {
  std::vector<double> scalar(xs.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    scalar[i] = log(xs[i]);
    const double err = ulp_error(scalar[i], xs[i]);
    if (!(err <= worst)) worst = err;  // a NaN sticks
  }
  std::vector<double> lane_out(xs.size());
  for (const Lane& lane : lanes()) {
    lane.log(xs.data(), lane_out.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (std::bit_cast<std::uint64_t>(lane_out[i]) !=
          std::bit_cast<std::uint64_t>(scalar[i])) {
        ADD_FAILURE() << lane.name << " lane differs from util::log at "
                      << std::hexfloat << xs[i];
        return HUGE_VAL;
      }
    }
  }
  return worst;
}

TEST(LaneLogTest, WithinOneUlpOfLogLongDoubleOnTheUniformGrid) {
  // Binade b holds j 2^-53 for j in [2^b, 2^(b+1)): all of it for small
  // b, otherwise 600,000 draws from it.  Together 20.9M inputs.
  constexpr std::uint64_t kPerBinade = 600'000;
  Rng rng(2027);
  std::vector<double> xs;
  std::size_t inputs = 0;
  double worst = 0.0;
  for (int b = 0; b < 53; ++b) {
    xs.clear();
    const std::uint64_t lo = std::uint64_t{1} << b;
    if (lo <= kPerBinade) {
      for (std::uint64_t j = lo; j < 2 * lo; ++j) {
        xs.push_back(static_cast<double>(j) * 0x1.0p-53);
      }
    } else {
      for (std::uint64_t i = 0; i < kPerBinade; ++i) {
        xs.push_back(static_cast<double>(lo + rng.uniform(lo)) * 0x1.0p-53);
      }
    }
    pad(xs);
    inputs += xs.size();
    const double binade_worst = worst_ulp_and_lanes_agree(xs);
    ASSERT_LE(binade_worst, 1.0) << "binade " << b;
    if (binade_worst > worst) worst = binade_worst;
  }
  EXPECT_GE(inputs, 20'000'000u);
  RecordProperty("worst_ulp", std::to_string(worst));

  // The edges: the smallest uniform (and exponential's clamp), 1/2, the
  // neighbours of sqrt(1/2) where the reduction changes k, and the
  // largest uniforms, whose logs are about -2^-53 and -2^-52.
  const double root_half = std::sqrt(0.5);
  xs = {0x1.0p-53,
        0.5,
        std::nextafter(root_half, 0.0),
        root_half,
        std::nextafter(root_half, 1.0),
        1.0 - 0x1.0p-53,
        1.0 - 0x1.0p-52,
        std::nextafter(0.5, 0.0),
        std::nextafter(0.5, 1.0)};
  pad(xs);
  EXPECT_LE(worst_ulp_and_lanes_agree(xs), 1.0);
}

TEST(LaneLogTest, WithinOneUlpOfLogLongDoubleAcrossTheNormals) {
  // Beyond the uniforms: powers of two and random bit patterns over the
  // positive normals below 2^1023, values near 1 on both sides, and the
  // neighbours of sqrt(2).
  std::vector<double> xs;
  for (int e = -1022; e < 1023; ++e) {
    if (e != 0) xs.push_back(std::ldexp(1.0, e));
  }
  Rng rng(2028);
  for (int i = 0; i < 200'000; ++i) {
    const std::uint64_t exp = 1 + rng.uniform(2045);  // biased 1..2045
    const std::uint64_t bits = (exp << 52) | (rng() >> 12);
    const double x = std::bit_cast<double>(bits);
    if (x != 1.0) xs.push_back(x);
  }
  for (int i = 1; i <= 1000; ++i) {
    xs.push_back(1.0 + i * 0x1.0p-52);
    xs.push_back(1.0 - i * 0x1.0p-53);
  }
  const double root_two = std::sqrt(2.0);
  xs.push_back(std::nextafter(root_two, 0.0));
  xs.push_back(root_two);
  xs.push_back(std::nextafter(root_two, 2.0));
  pad(xs);
  EXPECT_LE(worst_ulp_and_lanes_agree(xs), 1.0);

  // ln 1 is +0, and a power of two is k ln 2 to the last bit.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(log(1.0)), 0u);
  EXPECT_EQ(log(0.5), -log(2.0));
}

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
};

TEST(LaneLogTest, ScalarFormMatchesTheGoldenDigest) {
  // 2^20 fixed inputs: half of them Rng uniforms clamped as
  // Rng::exponential clamps them, half random positive normals.  The
  // golden value was computed from util::log; every host and build
  // (LEXFOR_SIMD=OFF, hwcaps -AVX2,-FMA) must give it, since no libm
  // call is involved.
  Rng rng(2030);
  Fnv1a fnv;
  for (int i = 0; i < (1 << 19); ++i) {
    double u = rng.uniform01();
    if (u <= 0.0) u = 0x1.0p-53;
    fnv.add(std::bit_cast<std::uint64_t>(log(u)));
  }
  for (int i = 0; i < (1 << 19); ++i) {
    const std::uint64_t exp = 1 + rng.uniform(2045);
    const double x = std::bit_cast<double>((exp << 52) | (rng() >> 12));
    fnv.add(std::bit_cast<std::uint64_t>(log(x)));
  }
  EXPECT_EQ(fnv.h, 0xd3586281b2460a2dULL);
}

TEST(LaneLogTest, EveryLaneReturnsTheScalarBitsAndTheWidestIsDispatched) {
  // The lanes and util::log run one body in one order with no FMA
  // contraction.
  const LaneLog avx2 = lane_log_avx2();
  EXPECT_EQ(lane_log(), avx2 != nullptr ? avx2 : &lane_log_baseline);
  Rng rng(2029);
  std::vector<double> xs(1 << 16);
  for (double& x : xs) {
    x = rng.uniform01();
    if (x <= 0.0) x = 0x1.0p-53;
  }
  std::vector<double> got(xs.size());
  for (const Lane& lane : lanes()) {
    lane.log(xs.data(), got.data(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                std::bit_cast<std::uint64_t>(log(xs[i])))
          << lane.name << " x " << xs[i];
    }
  }
}

}  // namespace
}  // namespace lexfor::util
