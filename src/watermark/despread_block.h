// Offset-blocked despread: the one scoring body CorrelationKernel::scan
// and ScanBatch's family scans run over full blocks of offsets.  Private
// to src/watermark.
//
// The scalar despread keeps one add chain per statistic, so a single
// window is bound by FP-add latency and cannot be vectorized without
// reassociating its sums.  Consecutive OFFSETS, however, are
// independent: a block scores W·R of them at once, one offset per
// vector lane, and each lane performs exactly the operations of
// CorrelationKernel::despread in exactly its order:
//
//   sum  += x[i]                      for i = 0..n-1
//   mean  = sum / n
//   d     = x[i] - mean;  num += d·c[i];  den += d·d   for i = 0..n-1
//   score = den <= 0 ? 0 : num / sqrt(den·n)
//
// Nothing is reassociated, so every lane's score is bit-identical to
// despread() on the same window, whatever W and R are — provided the
// translation unit does not contract a multiply and an add into an FMA
// (the AVX2 instantiation's file is built with -ffp-contract=off).
//
// A code FAMILY scanning one series shares everything but num: sum,
// mean and den depend only on the window, not on the code.  Its block
// therefore computes sum, mean and den once, in the order above (den's
// add chain never depended on num's, so moving it to its own pass keeps
// every bit), and then runs only `d = x - mean; num += d·c` per code,
// C codes per pass so one d serves C accumulators.  A one-code block
// keeps den in the num pass instead: there a separate stats pass is one
// more trip over the window for nothing shared.
//
// Lane k of accumulator r holds offset W·r + k.  Its window element i is
// x[W·r + k + i], so one unaligned W-wide load at x + W·r + i feeds all
// W lanes of accumulator r.  A call reads x[0 .. W·R - 1 + n - 1].
// The R (and R·C) accumulators give independent chains per statistic,
// which is what hides the add latency; `#pragma GCC unroll` keeps them
// in registers.
//
// The vector type is declared inside each template so a translation
// unit only ever names the width it instantiates: a 32-byte vector in a
// baseline-ISA unit draws GCC's -Wpsabi warning.  The templates are
// static, so each unit keeps its own copy and the linker can never fold
// an AVX2-compiled instantiation into a baseline-ISA caller.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstring>

#include "watermark/correlate.h"

namespace lexfor::watermark::detail {

// Writes the scores of offsets 0 .. W·R-1 of `x` against chips[0..n)
// to out[0 .. W·R).  The one-code block: den rides in the num pass.
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

// One pass of a family block: offsets 0 .. W·R-1 of `x` under the C code
// windows chips[0..C), given each lane's mean and den.  Code j's score
// for offset k goes to out[j·stride + k].
template <std::size_t W, std::size_t R, std::size_t C>
static inline void despread_tile(const double* x, const double* const* chips,
                                 std::size_t n, const double* mean,
                                 const double* den, double* out,
                                 std::size_t stride) noexcept {
  typedef double Vec __attribute__((vector_size(W * sizeof(double))));
  const auto load = [](const double* p) {
    Vec v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };
  Vec m[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) m[r] = load(mean + W * r);

  Vec num[C][R] = {};
  for (std::size_t i = 0; i < n; ++i) {
    Vec d[R];
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) d[r] = load(x + W * r + i) - m[r];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < C; ++j) {
      const double c = chips[j][i];
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) num[j][r] += d[r] * c;
    }
  }

  const double nd = static_cast<double>(n);
  for (std::size_t j = 0; j < C; ++j) {
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t k = 0; k < W; ++k) {
        const double dn = den[W * r + k];
        out[j * stride + W * r + k] =
            dn <= 0.0 ? 0.0 : num[j][r][k] / std::sqrt(dn * nd);
      }
    }
  }
}

// Writes the scores of offsets 0 .. W·R1-1 of `x` under each of the
// `count` code windows chips[0..count) to out[j·W·R1 + k] (code j,
// offset k).  One code runs despread_block<W, R1>; a family computes
// every lane's sum, mean and den once with R1 chains, then scores the
// codes C at a time (the last few one at a time) over W·R-offset parts
// of the block.
template <std::size_t W, std::size_t R1, std::size_t R, std::size_t C>
static inline void despread_family_block(const double* x,
                                         const double* const* chips,
                                         std::size_t count, std::size_t n,
                                         double* out) noexcept {
  constexpr std::size_t B = W * R1;
  static_assert(R1 % R == 0, "a family block splits into whole passes");
  if (count == 1) {
    despread_block<W, R1>(x, chips[0], n, out);
    return;
  }
  typedef double Vec __attribute__((vector_size(W * sizeof(double))));
  const auto load = [](const double* p) {
    Vec v;
    std::memcpy(&v, p, sizeof v);
    return v;
  };
  const double nd = static_cast<double>(n);

  Vec sum[R1] = {};
  for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R1; ++r) sum[r] += load(x + W * r + i);
  }
  Vec mean[R1];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R1; ++r) mean[r] = sum[r] / nd;
  Vec den[R1] = {};
  for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R1; ++r) {
      const Vec d = load(x + W * r + i) - mean[r];
      den[r] += d * d;
    }
  }
  double mean_s[B];
  double den_s[B];
  std::memcpy(mean_s, mean, sizeof mean_s);
  std::memcpy(den_s, den, sizeof den_s);

  std::size_t j = 0;
  for (; j + C <= count; j += C) {
    for (std::size_t h = 0; h < B; h += W * R) {
      despread_tile<W, R, C>(x + h, chips + j, n, mean_s + h, den_s + h,
                             out + j * B + h, B);
    }
  }
  for (; j < count; ++j) {
    for (std::size_t h = 0; h < B; h += W * R) {
      despread_tile<W, R, 1>(x + h, chips + j, n, mean_s + h, den_s + h,
                             out + j * B + h, B);
    }
  }
}

// The AVX2 one-code instantiation (W = 4, R = 4, so 16 offsets a call)
// from correlate_simd.cpp, or nullptr when this build or this CPU cannot
// run it.
inline constexpr std::size_t kAvx2BlockOffsets = 16;
using BlockScorer = void (*)(const double* x, const double* chips,
                             std::size_t n, double* out) noexcept;
[[nodiscard]] BlockScorer avx2_block_scorer() noexcept;

// The AVX2 family instantiation (W = 4, R1 = 4, R = 2, C = 4: 16 offsets
// a call, eight accumulators a pass), or nullptr like avx2_block_scorer.
using FamilyScorer = void (*)(const double* x, const double* const* chips,
                              std::size_t count, std::size_t n,
                              double* out) noexcept;
[[nodiscard]] FamilyScorer avx2_family_scorer() noexcept;

// Scans offsets 0 .. last_offset of `x` under each of the `count` code
// windows chips[0..count), every window n chips long, and leaves code
// j's best score and its offset in best[j] (strict >: the earliest
// offset wins).  Full blocks go through the family scorer, the offsets
// after the last full block through the scalar despread.  Reads
// x[0 .. last_offset + n - 1]; leaves best[j].best's threshold and
// verdict to the caller, whose kernel owns the threshold.
void scan_family(const double* x, std::size_t last_offset, std::size_t n,
                 const double* const* chips, std::size_t count,
                 ScanResult* best);

}  // namespace lexfor::watermark::detail
