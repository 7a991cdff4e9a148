#include "util/rng.h"

#include <bit>
#include <cmath>

namespace lexfor {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
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

std::int64_t Rng::uniform_in(std::int64_t lo, std::int64_t hi) noexcept {
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(uniform(span));
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

double Rng::pareto(double xm, double alpha) noexcept {
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return xm / std::pow(u, 1.0 / alpha);
}

std::uint64_t Rng::geometric(double p) noexcept {
  if (p >= 1.0) return 0;
  if (p <= 0.0) p = 0x1.0p-53;
  double u = uniform01();
  if (u <= 0.0) u = 0x1.0p-53;
  return static_cast<std::uint64_t>(std::log(u) / std::log(1.0 - p));
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  const double limit = std::exp(-mean);
  double prod = uniform01();
  std::uint64_t n = 0;
  while (prod > limit) {
    prod *= uniform01();
    ++n;
  }
  return n;
}

Rng Rng::sub_stream(std::uint64_t seed, std::uint64_t stream) noexcept {
  // One SplitMix64 step decorrelates consecutive stream indices before
  // the constructor's own SplitMix64 expansion mixes the combined seed.
  std::uint64_t sm = stream;
  return Rng{seed ^ splitmix64(sm)};
}

Rng Rng::split() noexcept {
  // Derive a child seed from two parent draws; the parent advances so
  // repeated splits yield distinct children.
  const std::uint64_t a = (*this)();
  const std::uint64_t b = (*this)();
  return Rng{a ^ std::rotl(b, 32) ^ 0xd2b74407b1ce6e93ULL};
}

}  // namespace lexfor
