// Offset-blocked despread: the one body CorrelationKernel::scan runs
// over full blocks of offsets.  Private to src/watermark.
//
// The scalar despread keeps one add chain per statistic, so a single
// window is bound by FP-add latency and cannot be vectorized without
// reassociating its sums.  Consecutive OFFSETS, however, are
// independent: despread_block scores W·R of them at once, one offset
// per vector lane, and each lane performs exactly the operations of
// CorrelationKernel::despread_presummed in exactly its order:
//
//   sum  += x[i]                      for i = 0..n-1
//   mean  = sum / n
//   d     = x[i] - mean;  num += d·c[i];  den += d·d   for i = 0..n-1
//   score = den <= 0 ? 0 : num / sqrt(den·n)
//
// Nothing is reassociated, so every lane's score is bit-identical to
// despread() on the same window, whatever W and R are — provided the
// translation unit does not contract d·c + num into an FMA (the AVX2
// instantiation's file is built with -ffp-contract=off for that).
//
// Lane k of accumulator r holds offset W·r + k.  Its window element i is
// x[W·r + k + i], so one unaligned W-wide load at x + W·r + i feeds all
// W lanes of accumulator r.  A call reads x[0 .. W·R - 1 + n - 1].
// The R accumulators give R independent chains per statistic, which is
// what hides the add latency; `#pragma GCC unroll` keeps them in
// registers.
//
// The vector type is declared inside the template so a translation
// unit only ever names the width it instantiates: a 32-byte vector in a
// baseline-ISA unit draws GCC's -Wpsabi warning.  The template is
// static, so each unit keeps its own copy and the linker can never fold
// an AVX2-compiled instantiation into a baseline-ISA caller.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>

namespace lexfor::watermark::detail {

// Writes the scores of offsets 0 .. W·R-1 of `x` against chips[0..n)
// to out[0 .. W·R).
template <std::size_t W, std::size_t R>
static inline void despread_block(const double* x, const double* chips,
                                  std::size_t n, double* out) noexcept {
  typedef double Vec __attribute__((vector_size(W * sizeof(double))));
  const auto load = [](const double* p) {
    Vec v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };
  const double nd = static_cast<double>(n);

  Vec sum[R] = {};
  for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) sum[r] += load(x + W * r + i);
  }
  Vec mean[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) mean[r] = sum[r] / nd;

  Vec num[R] = {};
  Vec den[R] = {};
  for (std::size_t i = 0; i < n; ++i) {
    const double c = chips[i];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const Vec d = load(x + W * r + i) - mean[r];
      num[r] += d * c;
      den[r] += d * d;
    }
  }

  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t k = 0; k < W; ++k) {
      out[W * r + k] =
          den[r][k] <= 0.0 ? 0.0 : num[r][k] / std::sqrt(den[r][k] * nd);
    }
  }
}

// The AVX2 instantiation (W = 4, R = 4, so 16 offsets a call) from
// correlate_simd.cpp, or nullptr when this build or this CPU cannot run
// it.
inline constexpr std::size_t kAvx2BlockOffsets = 16;
using BlockScorer = void (*)(const double* x, const double* chips,
                             std::size_t n, double* out) noexcept;
[[nodiscard]] BlockScorer avx2_block_scorer() noexcept;

}  // namespace lexfor::watermark::detail
