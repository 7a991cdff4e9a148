// The AVX2 lane of the owned log: four doubles per 256-bit register.
// Compile-time gate: the body is compiled only when the build sets
// LEXFOR_SIMD and CMake gave this translation unit alone -mavx2 -mfma
// (the rest of the tree keeps the baseline ISA).  The whole tree builds
// with -ffp-contract=off, so every multiply and add here rounds on its
// own, as in the baseline lane and the scalar form, and all three
// return the same bits.  Runtime gate: __builtin_cpu_supports, checked
// once.

#include "util/lane_log.h"

#if defined(LEXFOR_SIMD) && defined(__AVX2__)
#define LEXFOR_LANE_LOG_AVX2 1
#else
#define LEXFOR_LANE_LOG_AVX2 0
#endif

namespace lexfor::util {

#if LEXFOR_LANE_LOG_AVX2
namespace {

void lane_log_avx2_body(const double* x, double* out, std::size_t n) noexcept {
  detail::lane_log_block<4>(x, out, n);
}

}  // namespace
#endif

LaneLog lane_log_avx2() noexcept {
#if LEXFOR_LANE_LOG_AVX2
  static const bool ok =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  if (ok) return &lane_log_avx2_body;
#endif
  return nullptr;
}

}  // namespace lexfor::util
