// The lane log against std::log, on every lane this build and host run.
// Its callers widen each result by kLaneLogMargin into a bracket that
// must hold std::log's value; the margin's derivation (util/lane_log.h)
// rests on the bound checked here: within kLaneLogMargin / 16 of
// std::log, relative, over more than 20M uniforms of the form j 2^-53
// (every binade the Rng's uniforms reach) and the edges.

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

// The worst |L - std::log(x)| / |std::log(x)| of `lane` over xs (x != 1).
double worst_relative_error(LaneLog lane, const std::vector<double>& xs) {
  std::vector<double> got(xs.size());
  lane(xs.data(), got.data(), xs.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double ref = std::log(xs[i]);
    const double err = std::fabs(got[i] - ref) / std::fabs(ref);
    if (!(err <= worst)) worst = err;  // a NaN sticks
  }
  return worst;
}

// Pads to a whole number of blocks with a harmless input.
void pad(std::vector<double>& xs) {
  while (xs.size() % kLaneLogBlock != 0) xs.push_back(0.5);
}

TEST(LaneLogTest, EveryLaneStaysWithinASixteenthOfTheMarginOnTheUniformGrid) {
  // Binade b holds j 2^-53 for j in [2^b, 2^(b+1)): all of it for small
  // b, otherwise 600,000 draws from it.  Together 20.9M inputs.
  constexpr std::uint64_t kPerBinade = 600'000;
  const double bound = kLaneLogMargin / 16.0;
  Rng rng(2027);
  std::vector<double> xs;
  std::size_t inputs = 0;
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
    for (const Lane& lane : lanes()) {
      const double worst = worst_relative_error(lane.log, xs);
      ASSERT_LE(worst, bound) << lane.name << " binade " << b;
    }
  }
  EXPECT_GE(inputs, 20'000'000u);

  // The edges: the smallest uniform (and exponential's clamp), 1/2, the
  // neighbours of sqrt(1/2) where the reduction changes k, and the
  // largest uniform, whose log is about -2^-53.
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
  for (const Lane& lane : lanes()) {
    EXPECT_LE(worst_relative_error(lane.log, xs), bound) << lane.name;
  }
}

TEST(LaneLogTest, EveryLaneStaysWithinASixteenthOfTheMarginAcrossTheNormals) {
  // Beyond the uniforms: powers of two and random bit patterns over the
  // positive normals below 2^1023, and values near 1 on both sides.
  const double bound = kLaneLogMargin / 16.0;
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
  pad(xs);
  for (const Lane& lane : lanes()) {
    EXPECT_LE(worst_relative_error(lane.log, xs), bound) << lane.name;
  }
}

TEST(LaneLogTest, LanesReturnTheSameBitsAndTheWidestIsDispatched) {
  // Both lanes run one body in one order with no FMA contraction.
  const LaneLog avx2 = lane_log_avx2();
  EXPECT_EQ(lane_log(), avx2 != nullptr ? avx2 : &lane_log_baseline);
  if (avx2 == nullptr) return;  // one lane on this build or host
  Rng rng(2029);
  std::vector<double> xs(1 << 16);
  for (double& x : xs) {
    x = rng.uniform01();
    if (x <= 0.0) x = 0x1.0p-53;
  }
  std::vector<double> a(xs.size());
  std::vector<double> b(xs.size());
  lane_log_baseline(xs.data(), a.data(), xs.size());
  avx2(xs.data(), b.data(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "x " << xs[i];
  }
}

}  // namespace
}  // namespace lexfor::util
