// A lane-parallel natural log over blocks of doubles.
//
// Loops that take one log per random draw (tornet::simulate_flow_bins
// takes one per Poisson candidate and one per relay of every kept
// packet) spend most of their time in std::log, one call at a time.
// Their uniforms are drawn ahead in blocks, so the logs can run several
// to a vector register.  The lane log is not bit-identical to std::log:
// a caller widens each result by kLaneLogMargin into a bracket that
// provably holds std::log's value, and decides only where the bracket
// decides (simulate_flow_bins replays its exact loop otherwise).
//
// Method: x = 2^k z with z in [sqrt(1/2), sqrt(2)), both exact from the
// bit pattern; f = z - 1 is exact (Sterbenz); with s = f / (2 + f) and
// w = s^2, ln z = 2 atanh s = f - s (f - R), R = sum_{j=1..9} 2 w^j /
// (2j + 1), the atanh series in Horner order; ln x = k ln2_hi + (ln z +
// k ln2_lo), with ln2_hi holding 32 bits so k ln2_hi is exact.  |s| <=
// 0.1716, so the series' first dropped term is below 2^-55 of the
// result, and f is exact while s (f - R) is about f^2 / 2: the roundings
// leave a few 2^-53 of the result (tests/util/lane_log_test.cpp
// measures the worst case).
//
// On x86-64 the AVX2 lane runs four doubles a register; it is built into
// lane_log_simd.cpp alone, under the LEXFOR_SIMD option, as the
// watermark despread's AVX2 lane is.  The baseline lane runs two (SSE2
// on x86-64).  Both run the same operations in the same order without
// FMA contraction, so they return the same bits.

#pragma once

#include <cstddef>

namespace lexfor::util {

// A caller that brackets std::log(x) by a lane log L widens it to
// [L (1 + m), L (1 - m)] (L < 0; the reverse for L > 0) with
// m = kLaneLogMargin.  The bracket holds std::log(x) when
//
//   m >= e_lane + e_libm + 2^-53,
//
// where e_lane is the lane log's relative error against the true log,
// e_libm std::log's, and 2^-53 covers the rounding of the widening
// product (|L| >= 2^-53 on the inputs below, far from subnormal; 1 + m
// and 1 - m are exact).  lane_log_test checks |L - std::log(x)| <=
// m / 16 |std::log(x)| on every lane this host runs, over more than 20M
// inputs of the form j 2^-53 across all 53 binades and the edges
// (2^-53, 1/2, the neighbours of sqrt(1/2), 1 - 2^-53); the worst case
// it sees is about 2^-52.  So 2^-44 leaves room for any libm within
// about 200 ULP of the true log, and for the glibc variants that differ
// from each other by one ULP on some inputs.
inline constexpr double kLaneLogMargin = 0x1.0p-44;

// Block lengths passed to a lane log must be a multiple of this.
inline constexpr std::size_t kLaneLogBlock = 4;

// out[i] = ln x[i] for i < n, each x[i] a positive normal double below
// 2^1023, n a multiple of kLaneLogBlock.  x and out may be the same
// array.
using LaneLog = void (*)(const double* x, double* out, std::size_t n) noexcept;

// The baseline-ISA lane: runs on every host.
void lane_log_baseline(const double* x, double* out, std::size_t n) noexcept;

// The AVX2 lane, or nullptr when this build (LEXFOR_SIMD off, or a
// compiler without the flags) or this host has none.
[[nodiscard]] LaneLog lane_log_avx2() noexcept;

// The widest lane this build and host run; the CPU is checked once.
[[nodiscard]] LaneLog lane_log() noexcept;

}  // namespace lexfor::util
