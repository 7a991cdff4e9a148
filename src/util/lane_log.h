// The owned natural log: ln x with the same bits on every host, one
// value at a time (util::log) or a block at a time (the lanes).
//
// It is the definition of ln wherever the simulation draws an
// exponential: Rng::exponential calls util::log, and the packet path
// (tornet's generate_modulated_poisson, transit and simulate_flow_bins)
// takes each block of draws' logs in one lane call, with the same bits.
// std::log is the host's libm, whose variants can differ in the last bit
// (glibc's default one and the one GLIBC_TUNABLES=glibc.cpu.hwcaps=
// -AVX2,-FMA selects do on some inputs).
//
// Method: x = 2^k z with z in [sqrt(1/2), sqrt(2)), both exact from the
// bit pattern; f = z - 1 is exact (Sterbenz); with s = f / (2 + f), w =
// s^2, hfsq = f^2 / 2 and R = sum_{j=1..10} 2 w^j / (2j + 1), the atanh
// series as an odd and an even Horner chain in w^2, ln x = k ln2_hi -
// ((hfsq - (s (hfsq + R) + k ln2_lo)) - f), fdlibm's arrangement of
// k ln 2 + 2 atanh s; ln2_hi holds 32 bits, so k ln2_hi is exact.
//
// Accuracy: within 1 ULP of the long-double log on every input
// tests/util/lane_log_test.cpp tries (over 20M: the j 2^-53 grid over
// all 53 binades of the uniforms, powers of two, random normals and the
// edges); the worst it sees is about 0.84 ULP.  ln 1 is +0.
//
// Domain: the positive normal doubles below 2^1023.  Callers pass
// uniforms clamped at 2^-53 and skip_generation_draws' products of 16 of
// them (at least 2^-848).  Other inputs give meaningless values.
//
// Lanes: the baseline lane runs two doubles a step (SSE2 on x86-64), the
// AVX2 lane four, built into lane_log_simd.cpp alone under the
// LEXFOR_SIMD option, as the watermark despread's AVX2 lane is.  The
// scalar form and both lanes run one body (util/lane_log_block.h) with
// the same IEEE operations in the same order, and the tree builds with
// -ffp-contract=off, so nothing fuses: all three return the same bits
// on x86-64, AArch64 or any IEEE double target.

#pragma once

#include <cstddef>

#include "util/lane_log_block.h"

namespace lexfor::util {

// ln x for a positive normal x.  Static, so that a translation unit
// built with wider ISA flags keeps its inlined copy to itself.
[[nodiscard]] static inline double log(double x) noexcept {
  return detail::log_body<1>(x);
}

// Block lengths passed to a lane log must be a multiple of this.
inline constexpr std::size_t kLaneLogBlock = 4;

// out[i] = util::log(x[i]) for i < n, bit for bit, n a multiple of
// kLaneLogBlock.  x and out may be the same array.
using LaneLog = void (*)(const double* x, double* out, std::size_t n) noexcept;

// The baseline-ISA lane: runs on every host.
void lane_log_baseline(const double* x, double* out, std::size_t n) noexcept;

// The AVX2 lane, or nullptr when this build (LEXFOR_SIMD off, or a
// compiler without the flags) or this host has none.
[[nodiscard]] LaneLog lane_log_avx2() noexcept;

// The widest lane this build and host run; the CPU is checked once.
[[nodiscard]] LaneLog lane_log() noexcept;

}  // namespace lexfor::util
