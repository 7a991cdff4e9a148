// The one body of the lane log (util/lane_log.h), instantiated at the
// baseline width in lane_log.cpp and at AVX2 width in
// lane_log_simd.cpp.  Private to src/util.
//
// The vector types are declared inside the template so a translation
// unit only names the width it instantiates (a 32-byte vector in a
// baseline-ISA unit draws GCC's -Wpsabi warning), and the template is
// static so the linker never folds an AVX2-compiled copy into a
// baseline-ISA caller.

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace lexfor::util::detail {

template <std::size_t W>
static inline void lane_log_block(const double* x, double* out,
                                  std::size_t n) noexcept {
  typedef double Vec __attribute__((vector_size(W * sizeof(double))));
  typedef std::uint64_t Bits
      __attribute__((vector_size(W * sizeof(double))));
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
  // 2 / (2j + 1), j = 1..9: the atanh series of ln z in w = s^2.
  constexpr double c1 = 2.0 / 3.0, c2 = 2.0 / 5.0, c3 = 2.0 / 7.0,
                   c4 = 2.0 / 9.0, c5 = 2.0 / 11.0, c6 = 2.0 / 13.0,
                   c7 = 2.0 / 15.0, c8 = 2.0 / 17.0, c9 = 2.0 / 19.0;

  // The bits of one vector as the other type (same size).
  const auto as = [](auto to, const auto& from) {
    std::memcpy(&to, &from, sizeof to);
    return to;
  };

  for (std::size_t i = 0; i < n; i += W) {
    Bits bits;
    std::memcpy(&bits, x + i, sizeof bits);
    const Bits tmp = bits - kSqrtHalf;
    const Bits k_biased = ((tmp >> 52) + 0x800) & 0xfff;
    const Bits z_bits = bits - (tmp & kExpMask);
    const Bits k_bits = k_biased | kTwo52Bits;
    const Vec z = as(Vec{}, z_bits);
    const Vec k = as(Vec{}, k_bits) - kTwo52Plus2048;
    const Vec f = z - 1.0;
    const Vec s = f / (2.0 + f);
    const Vec w = s * s;
    const Vec r =
        w * (c1 + w * (c2 + w * (c3 + w * (c4 + w * (c5 + w * (c6 + w * (
                 c7 + w * (c8 + w * c9))))))));
    const Vec y = k * kLn2Hi + (f - (s * (f - r) - k * kLn2Lo));
    std::memcpy(out + i, &y, sizeof y);
  }
}

}  // namespace lexfor::util::detail
