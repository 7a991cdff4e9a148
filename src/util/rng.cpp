#include "util/rng.h"

#include <array>
#include <cmath>
#include <cstddef>
#include <limits>

namespace lexfor {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Where Rng::poisson switches from Knuth's product to PTRS.  The product
// takes one uniform per unit of mean and fails past about 745, where
// exp(-mean) underflows; PTRS needs a mean of at least 10.
constexpr double kPoissonRejectionFrom = 30.0;

// ln k! for a whole k >= 0: a table below 10, and from 10 on
// Stirling's series for ln Gamma(k + 1) to its 1/x^11 term, whose first
// dropped term is below 1e-14.  Unlike std::lgamma it writes no global
// (signgam), so concurrent draws do not race.
double log_factorial(double k) noexcept {
  if (k < 10.0) {
    static const auto table = [] {
      std::array<double, 10> t{};
      double factorial = 1.0;
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) factorial *= static_cast<double>(i);
        t[i] = std::log(factorial);
      }
      return t;
    }();
    return table[static_cast<std::size_t>(k)];
  }
  constexpr double kHalfLog2Pi = 0.91893853320467274178;
  const double x = k + 1.0;
  const double r = 1.0 / x;
  const double r2 = r * r;
  const double series =
      r * (1.0 / 12.0 +
           r2 * (-1.0 / 360.0 +
                 r2 * (1.0 / 1260.0 +
                       r2 * (-1.0 / 1680.0 +
                             r2 * (1.0 / 1188.0 + r2 * (-691.0 / 360360.0))))));
  return (x - 0.5) * std::log(x) - x + kHalfLog2Pi + series;
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro256** requires not-all-zero state; splitmix64 of any seed
  // cannot produce four zero words, but be defensive.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::uniform(std::uint64_t bound) noexcept {
  // Lemire's multiply-shift rejection method: unbiased and fast.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (l < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::normal(double mu, double sigma) noexcept {
  double u1 = uniform01();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform01();
  const double r = std::sqrt(-2.0 * std::log(u1));
  return mu + sigma * r * std::cos(6.283185307179586 * u2);
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (!(mean > 0.0)) return 0;
  if (!(mean < 0x1.0p63)) return std::numeric_limits<std::uint64_t>::max();
  if (mean < kPoissonRejectionFrom) {
    // Knuth: the number of uniforms whose running product stays above
    // exp(-mean).  One uniform per unit of mean, and exp(-mean) is far
    // from underflow below the cutoff.
    const double limit = std::exp(-mean);
    double prod = uniform01();
    std::uint64_t n = 0;
    while (prod > limit) {
      prod *= uniform01();
      ++n;
    }
    return n;
  }
  // Hörmann's transformed rejection with squeeze, PTRS (W. Hörmann, "The
  // transformed rejection method for generating Poisson random
  // variables", Insurance: Mathematics and Economics 12, 1993), exact
  // for a mean of 10 or more.  A pair of uniforms (u, v) proposes
  // k = floor((2a / us + b) u + mean + 0.43), us = 0.5 - |u|, from a
  // hat that dominates the Poisson pmf; most pairs are accepted by the
  // squeeze us >= 0.07, v <= v_r, and the rest are tested against
  // log pmf(k) = k log mean - mean - ln k!.  About 1.1 pairs a
  // draw at any mean.  k stays a double until it is accepted, so a
  // proposal far outside the integers (us near 0) is rejected, never
  // cast.
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double log_inv_alpha = std::log(1.1239 + 1.1328 / (b - 3.4));
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  const double log_mean = std::log(mean);
  for (;;) {
    const double u = uniform01() - 0.5;
    const double v = uniform01();
    const double us = 0.5 - std::fabs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    if (std::log(v) + log_inv_alpha - std::log(a / (us * us) + b) <=
        -mean + k * log_mean - log_factorial(k)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

Rng Rng::sub_stream(std::uint64_t seed, std::uint64_t stream) noexcept {
  // One SplitMix64 step decorrelates consecutive stream indices before
  // the constructor's own SplitMix64 expansion mixes the combined seed.
  std::uint64_t sm = stream;
  return Rng{seed ^ splitmix64(sm)};
}

}  // namespace lexfor
