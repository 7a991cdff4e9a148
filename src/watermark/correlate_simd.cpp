// The AVX2 instantiations of the offset-blocked despread
// (despread_block.h): four offsets per 256-bit register, sixteen offsets
// per call.  One code runs four accumulators; a family runs two offset
// registers under four codes, eight accumulators a pass.  They are
// bit-identical to the baseline-width instantiations in correlate.cpp
// and to the scalar despread, so which one a scan runs never changes a
// score.
//
// Compile-time gate: the file is always built, but the AVX2 body is
// compiled only when the build sets LEXFOR_SIMD (CMake option) AND this
// translation unit has AVX2 (CMake adds -mavx2 -mfma -ffp-contract=off
// to this file alone when the compiler supports them; the rest of the
// codebase keeps the portable baseline ISA).  -ffp-contract=off is part
// of the bit-identity contract: contracting den + d·d into an FMA
// rounds once where the scalar path rounds twice.  (num + d·c would
// survive contraction, since d·c is exact for ±1 chips, but no body
// relies on that.)  Runtime gate: __builtin_cpu_supports, checked once.

#include "watermark/correlate.h"
#include "watermark/despread_block.h"

#if defined(LEXFOR_SIMD) && defined(__AVX2__)
#define LEXFOR_SIMD_AVX2 1
#else
#define LEXFOR_SIMD_AVX2 0
#endif

namespace lexfor::watermark {

namespace detail {

BlockScorer avx2_block_scorer() noexcept {
#if LEXFOR_SIMD_AVX2
  if (CorrelationKernel::simd_lane_available()) return despread_block<4, 4>;
#endif
  return nullptr;
}

FamilyScorer avx2_family_scorer() noexcept {
#if LEXFOR_SIMD_AVX2
  if (CorrelationKernel::simd_lane_available()) {
    return despread_family_block<4, 4, 2, 4>;
  }
#endif
  return nullptr;
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
