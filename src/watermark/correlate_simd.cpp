// The AVX2 instantiations of the offset-blocked despread
// (despread_block.h): four offsets per 256-bit register, sixteen offsets
// per call.  One code runs four accumulators; a family runs two offset
// registers under four codes, eight accumulators a pass.  They are
// bit-identical to the baseline-width instantiations in correlate.cpp
// and to the scalar despread, so which one a scan runs never changes a
// score.  The ranked scan's AVX2 lanes live here too: its window
// statistics (the same window_stats<4, 4> the family block runs) and
// its integer correlations, eight int32 lanes a register and four codes
// a pass, which give the same exact integers as the SSE2 lane.
//
// Compile-time gate: the file is always built, but the AVX2 body is
// compiled only when the build sets LEXFOR_SIMD (CMake option) AND this
// translation unit has AVX2 (CMake adds -mavx2 -mfma to this file alone
// when the compiler supports them; the rest of the codebase keeps the
// portable baseline ISA).  The tree-wide -ffp-contract=off (root
// CMakeLists.txt) is part of the bit-identity contract: contracting
// den + d·d into an FMA rounds once where the scalar path rounds twice.  (num + d·c would
// survive contraction, since d·c is exact for ±1 chips, but no body
// relies on that.)  Runtime gate: __builtin_cpu_supports, checked once.

#include "watermark/correlate.h"
#include "watermark/despread_block.h"

#if defined(LEXFOR_SIMD) && defined(__AVX2__)
#define LEXFOR_SIMD_AVX2 1
#include <immintrin.h>
#else
#define LEXFOR_SIMD_AVX2 0
#endif

namespace lexfor::watermark {

namespace detail {

#if LEXFOR_SIMD_AVX2
namespace {

void avx2_stats(const double* x, std::size_t n, double* mean,
                double* den) noexcept {
  static_assert(kRankBlock == 16);
  window_stats<4, 4>(x, n, mean, den);
}

void avx2_correlate(const std::int16_t* x, const std::int16_t* const* chips,
                    std::size_t count, std::size_t n,
                    std::int32_t* out) noexcept {
  correlate_block<8, 4>(x, chips, count, n, out, [](auto a, auto b) {
    return _mm256_madd_epi16((__m256i)a, (__m256i)b);
  });
}

}  // namespace
#endif

FamilyScorer avx2_family_scorer() noexcept {
#if LEXFOR_SIMD_AVX2
  if (CorrelationKernel::simd_lane_available()) {
    return despread_family_block<4, 4, 2, 4>;
  }
#endif
  return nullptr;
}

RankLanes avx2_rank_lanes() noexcept {
  RankLanes lanes;
#if LEXFOR_SIMD_AVX2
  if (CorrelationKernel::simd_lane_available()) {
    lanes.stats = avx2_stats;
    lanes.correlate = avx2_correlate;
  }
#endif
  return lanes;
}

}  // namespace detail

bool CorrelationKernel::simd_lane_available() noexcept {
#if LEXFOR_SIMD_AVX2
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  return ok;
#else
  return false;
#endif
}

}  // namespace lexfor::watermark
