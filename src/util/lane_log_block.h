// The one body of the owned log (util/lane_log.h): the scalar form
// util::log instantiates it at width 1 (a double), lane_log.cpp at the
// baseline vector width 2 and lane_log_simd.cpp at the AVX2 width 4.
//
// The templates are static, so the linker never folds an AVX2-compiled
// copy into a baseline-ISA caller.  A 32-byte vector passed or returned
// by value in a baseline-ISA unit draws GCC's -Wpsabi warning, so only
// lane_log_simd.cpp instantiates width 4; declaring its types is fine.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace lexfor::util::detail {

// The value and bit-pattern types of a W-wide lane, spelled out per
// width: GCC drops a vector_size that depends on a template parameter
// when the type is passed as a template argument.
template <std::size_t W>
struct Lane;
template <>
struct Lane<1> {
  using Vec = double;
  using Bits = std::uint64_t;
};
template <>
struct Lane<2> {
  typedef double Vec __attribute__((vector_size(16)));
  typedef std::uint64_t Bits __attribute__((vector_size(16)));
};
template <>
struct Lane<4> {
  typedef double Vec __attribute__((vector_size(32)));
  typedef std::uint64_t Bits __attribute__((vector_size(32)));
};

// ln x for each of W doubles.  Every operation is an IEEE add,
// subtract, multiply or divide, or an exact integer step, in one fixed
// order, whatever the width.
template <std::size_t W>
static inline typename Lane<W>::Vec log_body(
    typename Lane<W>::Vec x) noexcept {
  using Vec = typename Lane<W>::Vec;
  using Bits = typename Lane<W>::Bits;
  // Bit pattern of sqrt(1/2) rounded down: x's bits minus it carry the
  // exponent k with z = x / 2^k in [sqrt(1/2), sqrt(2)).
  constexpr std::uint64_t kSqrtHalf = 0x3fe6a09e667f3bcdULL;
  constexpr std::uint64_t kExpMask = 0xfff0000000000000ULL;
  // k + 2048 as the low bits of 2^52 + (k + 2048): the conversion to
  // double uses only integer and double adds, which every lane has.
  constexpr std::uint64_t kTwo52Bits = 0x4330000000000000ULL;
  constexpr double kTwo52Plus2048 = 0x1.0p52 + 2048.0;
  constexpr double kLn2Hi = 0x1.62e42feep-1;          // 32 bits of ln 2
  constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;    // ln 2 - kLn2Hi
  // 2 / (2j + 1), j = 1..10: the atanh series of ln z in w = s^2.
  constexpr double c1 = 2.0 / 3.0, c2 = 2.0 / 5.0, c3 = 2.0 / 7.0,
                   c4 = 2.0 / 9.0, c5 = 2.0 / 11.0, c6 = 2.0 / 13.0,
                   c7 = 2.0 / 15.0, c8 = 2.0 / 17.0, c9 = 2.0 / 19.0,
                   c10 = 2.0 / 21.0;

  Bits bits;
  std::memcpy(&bits, &x, sizeof bits);
  const Bits tmp = bits - kSqrtHalf;
  const Bits k_biased = ((tmp >> 52) + 0x800) & 0xfff;
  const Bits z_bits = bits - (tmp & kExpMask);
  const Bits k_bits = k_biased | kTwo52Bits;
  Vec z;
  Vec k;
  std::memcpy(&z, &z_bits, sizeof z);
  std::memcpy(&k, &k_bits, sizeof k);
  k -= kTwo52Plus2048;
  const Vec f = z - 1.0;
  const Vec s = f / (2.0 + f);
  const Vec w = s * s;
  const Vec w2 = w * w;
  // R = sum_{j=1..10} c_j w^j as an odd chain and an even chain in w^2.
  const Vec odd = w * (c1 + w2 * (c3 + w2 * (c5 + w2 * (c7 + w2 * c9))));
  const Vec even = w2 * (c2 + w2 * (c4 + w2 * (c6 + w2 * (c8 + w2 * c10))));
  const Vec r = odd + even;
  const Vec hfsq = 0.5 * f * f;
  return k * kLn2Hi - ((hfsq - (s * (hfsq + r) + k * kLn2Lo)) - f);
}

// out[i] = ln x[i] for i < n, W doubles a step; n a multiple of W.
template <std::size_t W>
static inline void lane_log_block(const double* x, double* out,
                                  std::size_t n) noexcept {
  for (std::size_t i = 0; i < n; i += W) {
    typename Lane<W>::Vec v;
    std::memcpy(&v, x + i, sizeof v);
    const auto y = log_body<W>(v);
    std::memcpy(out + i, &y, sizeof y);
  }
}

}  // namespace lexfor::util::detail
