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
// The ranked scan (scan_family, on whole counts) shares window_stats
// with the family block and adds one integer body, correlate_block: the
// exact correlation X = Σ x[k + i]·c[i] of kRankBlock offsets under a
// run of codes, in int32, from int16 series and chips.  pmaddwd
// multiplies int16 pairs and adds each pair into one int32 lane, so a
// register of L int32 lanes takes 2L products an instruction.  A load
// of 2L int16 at x + 2p feeds lane k the pair (x[2k + 2p],
// x[2k + 2p + 1]): chips 2p and 2p + 1 of the EVEN offset 2k.  The load
// at x + 2p + 1 feeds the odd offsets.  Chip pair p is broadcast as one
// int32 word.  An odd n takes one more pair whose second chip is 0, so
// the chips carry a trailing 0 and the series one more readable
// element.  Integer sums are exact in any order, so every lane width
// gives the same X.
//
// The vector type is declared inside each template so a translation
// unit only ever names the width it instantiates: a 32-byte vector in a
// baseline-ISA unit draws GCC's -Wpsabi warning.  The templates are
// static, so each unit keeps its own copy and the linker can never fold
// an AVX2-compiled instantiation into a baseline-ISA caller.

#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "watermark/correlate.h"

namespace lexfor::watermark::detail {

// Every lane's mean and den for offsets 0 .. W·R-1 of `x`: the window
// sum in index order, mean = sum / n, then den = Σ d·d in index order.
// The family block and the ranked scan both take their statistics from
// here, so each lane's mean and den are despread()'s, bit for bit.
template <std::size_t W, std::size_t R>
static inline void window_stats(const double* x, std::size_t n, double* mean,
                                double* den) noexcept {
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
  Vec m[R];
#pragma GCC unroll 8
  for (std::size_t r = 0; r < R; ++r) m[r] = sum[r] / nd;
  Vec dd[R] = {};
  for (std::size_t i = 0; i < n; ++i) {
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const Vec d = load(x + W * r + i) - m[r];
      dd[r] += d * d;
    }
  }
  std::memcpy(mean, m, sizeof m);
  std::memcpy(den, dd, sizeof dd);
}

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
  double mean_s[B];
  double den_s[B];
  window_stats<W, R1>(x, n, mean_s, den_s);

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

// Offsets per call of a ranked-scan lane.
inline constexpr std::size_t kRankBlock = 16;

// One pass of correlate_block: the kRankBlock offsets of `x` under the C
// codes chips[0..C), over chip pairs 0 .. pairs-1, added to
// out[j·kRankBlock + k].  A register holds L int32 lanes; `madd` is the
// ISA's pmaddwd on 2L int16 lanes, returning its own vector type.
template <std::size_t L, std::size_t C, typename Madd>
static inline void correlate_tile(const std::int16_t* x,
                                  const std::int16_t* const* chips,
                                  std::size_t pairs, std::int32_t* out,
                                  Madd madd) noexcept {
  typedef std::int16_t V16 __attribute__((vector_size(4 * L)));
  typedef std::int32_t V32 __attribute__((vector_size(4 * L)));
  // T tiles of 2L offsets, each an even and an odd register.
  constexpr std::size_t T = kRankBlock / (2 * L);
  V32 acc[C][T][2] = {};
  for (std::size_t p = 0; p < pairs; ++p) {
    V16 xv[T][2];
#pragma GCC unroll 8
    for (std::size_t t = 0; t < T; ++t) {
      std::memcpy(&xv[t][0], x + 2 * L * t + 2 * p, sizeof(V16));
      std::memcpy(&xv[t][1], x + 2 * L * t + 2 * p + 1, sizeof(V16));
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < C; ++j) {
      std::int32_t word;
      std::memcpy(&word, chips[j] + 2 * p, sizeof word);
      const V16 pair = (V16)(V32{} + word);
#pragma GCC unroll 8
      for (std::size_t t = 0; t < T; ++t) {
        acc[j][t][0] += (V32)madd(xv[t][0], pair);
        acc[j][t][1] += (V32)madd(xv[t][1], pair);
      }
    }
  }
  for (std::size_t j = 0; j < C; ++j) {
    for (std::size_t t = 0; t < T; ++t) {
      for (std::size_t k = 0; k < L; ++k) {
        out[j * kRankBlock + 2 * L * t + 2 * k] += acc[j][t][0][k];
        out[j * kRankBlock + 2 * L * t + 2 * k + 1] += acc[j][t][1][k];
      }
    }
  }
}

// Adds X_j(k) = Σ_{i<n} x[k + i]·chips[j][i] to out[j·kRankBlock + k] for
// the `count` codes and offsets k < kRankBlock, exactly: the caller
// keeps every |x| <= 32767 and n·max|x| < 2^31.  Reads chips[j][0 .. n]
// (chip n, read for an odd n, must be 0) and x[0 .. kRankBlock - 1 + n]
// (the last element is read for an odd n and only multiplies chip n).
// C codes a pass, the last few one at a time.
template <std::size_t L, std::size_t C, typename Madd>
static inline void correlate_block(const std::int16_t* x,
                                   const std::int16_t* const* chips,
                                   std::size_t count, std::size_t n,
                                   std::int32_t* out, Madd madd) noexcept {
  const std::size_t pairs = (n + 1) / 2;
  std::size_t j = 0;
  for (; j + C <= count; j += C) {
    correlate_tile<L, C>(x, chips + j, pairs, out + j * kRankBlock, madd);
  }
  for (; j < count; ++j) {
    correlate_tile<L, 1>(x, chips + j, pairs, out + j * kRankBlock, madd);
  }
}

// The AVX2 family instantiation (W = 4, R1 = 4, R = 2, C = 4: 16 offsets
// a call, eight accumulators a pass; one code runs despread_block<4, 4>)
// from correlate_simd.cpp, or nullptr when this build or this CPU cannot
// run it.
inline constexpr std::size_t kAvx2BlockOffsets = 16;
using FamilyScorer = void (*)(const double* x, const double* const* chips,
                              std::size_t count, std::size_t n,
                              double* out) noexcept;
[[nodiscard]] FamilyScorer avx2_family_scorer() noexcept;

// The ranked scan's two lanes for one ISA, each over kRankBlock offsets:
// `stats` writes every offset's mean and den (window_stats), and
// `correlate` adds the exact integer correlations (correlate_block).
struct RankLanes {
  void (*stats)(const double* x, std::size_t n, double* mean,
                double* den) noexcept = nullptr;
  void (*correlate)(const std::int16_t* x, const std::int16_t* const* chips,
                    std::size_t count, std::size_t n,
                    std::int32_t* out) noexcept = nullptr;
};
// The AVX2 lanes from correlate_simd.cpp, null when this build or this
// CPU cannot run them.
[[nodiscard]] RankLanes avx2_rank_lanes() noexcept;
// The baseline-ISA lanes from correlate.cpp: SSE2 on x86-64.  Where the
// baseline ISA has no pmaddwd, `correlate` is null.
[[nodiscard]] RankLanes baseline_rank_lanes() noexcept;

// Whether every rate in x[0 .. size) is a whole number with |x| <= 32767
// and n·max|x| < 2^31: int16 then holds each rate, int32 each partial
// correlation of an n-chip window, and every window sum is exact in any
// order.  A fraction, NaN or an infinity fails.
[[nodiscard]] bool whole_counts(const double* x, std::size_t size,
                                std::size_t n) noexcept;

// Scans offsets 0 .. last_offset of `x` under each of the `count` codes,
// every one n chips long, and leaves code j's best score and its offset
// in best[j] (strict >: the earliest offset wins).  Reads
// x[0 .. last_offset + n - 1]; leaves best[j].best's threshold and
// verdict to the caller, whose kernel owns the threshold.
//
// Two paths give the same bits.  The exact family path scores every
// offset: full blocks through the family scorer, the offsets after the
// last full block through the scalar despread.  The ranked path ranks
// each code's offsets by the exact integer correlation and despreads
// only the offsets that can still win (see correlate.cpp).  It runs
// when every rate it reads is a whole number with |x| <= 32767 and
// n·max|x| < 2^31 (whole_counts), a lane pair exists, there is at least
// one block of offsets, and there are at least two codes.  One code
// shares its window statistics with nothing: that pass is the whole of
// the exact one-code block, so ranking would only add to it.
void scan_family(const double* x, std::size_t last_offset, std::size_t n,
                 const ScanCode* codes, std::size_t count, ScanResult* best);

}  // namespace lexfor::watermark::detail
