// Deterministic pseudo-random number generation for simulations.
//
// All stochastic behaviour in LexForensica (network jitter, workload
// generation, overlay topology) flows through `Rng`, a xoshiro256**
// generator with explicit seeding, so every experiment is exactly
// reproducible from its seed.  `Rng` satisfies the C++
// UniformRandomBitGenerator requirements, and `sub_stream()` derives
// independent child streams by index, which keeps module-local
// randomness stable when unrelated code adds or removes draws.

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "util/lane_log.h"

namespace lexfor {

class Rng {
 public:
  using result_type = std::uint64_t;

  // Seeds the state via SplitMix64 so that even small seeds produce
  // well-mixed state (the xoshiro authors' recommended procedure).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  // Next raw 64-bit draw (xoshiro256**).  This draw, uniform01() and
  // exponential() are defined here so the simulation loops that make
  // several draws per packet inline them.  Inlined, `t += exponential(m)`
  // could fuse into one FMA on a target that has it; the whole tree
  // builds with -ffp-contract=off, so every sum rounds as it does out of
  // line.
  result_type operator()() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // Uniform integer in [0, bound) using Lemire's unbiased method.
  // bound must be nonzero.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t bound) noexcept;

  // Uniform double in [0, 1): 53 significant bits.
  [[nodiscard]] double uniform01() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  // Bernoulli draw with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  // Exponential with the given mean (> 0): (-mean) * util::log(u), the
  // owned log (util/lane_log.h), so the draws have the same bits on
  // every host.  A uniform of 0 is clamped to 2^-53 so log never sees 0.
  [[nodiscard]] double exponential(double mean) noexcept {
    double u = uniform01();
    if (u <= 0.0) u = 0x1.0p-53;
    return -mean * util::log(u);
  }

  // Standard-normal via Box-Muller (no cached spare: keeps state minimal
  // and draw counts predictable).
  [[nodiscard]] double normal(double mu, double sigma) noexcept;

  // Poisson with the given mean, exact at any mean below 2^63: Knuth's
  // product of uniforms below a mean of 30 (the draws it always made),
  // Hörmann's transformed rejection (PTRS) from 30 on.  A mean <= 0 or
  // NaN draws nothing and returns 0; a larger one draws nothing and
  // returns the largest count.
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  // A counter-derived child stream: a generator identified by
  // (seed, stream) alone, with no parent state consumed.  Stream k is
  // the same generator no matter how many other streams are derived,
  // in what order, or on which thread — the
  // property that lets per-item simulation loops (one stream per flow)
  // be parallelized without changing any output.
  [[nodiscard]] static Rng sub_stream(std::uint64_t seed,
                                      std::uint64_t stream) noexcept;

  // Fisher-Yates shuffle of a random-access container.
  template <typename Container>
  void shuffle(Container& c) noexcept {
    if (c.size() < 2) return;
    for (std::size_t i = c.size() - 1; i > 0; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform(i + 1));
      using std::swap;
      swap(c[i], c[j]);
    }
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace lexfor
