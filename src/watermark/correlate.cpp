#include "watermark/correlate.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "obs/obs.h"
#include "watermark/despread_block.h"

namespace lexfor::watermark {
namespace {

// Sequential sum, unrolled 4-wide over a SINGLE accumulator chain: the
// adds happen in exactly the order `for (i) s += x[i]` performs them,
// so the result is bit-identical to the naive loop (the compiler may
// not reassociate FP additions without -ffast-math).  The unrolling
// buys address-computation and loop-control savings, not reordering.
inline double seq_sum(const double* x, std::size_t n) noexcept {
  double s = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s += x[i];
    s += x[i + 1];
    s += x[i + 2];
    s += x[i + 3];
  }
  for (; i < n; ++i) s += x[i];
  return s;
}

// Fused mean-removed correlate pass: num and denom are independent
// accumulator chains, each in naive sequential order.
inline void seq_correlate(const double* x, const double* c, std::size_t n,
                          double mean, double& num_out,
                          double& denom_out) noexcept {
  double num = 0.0, denom = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = x[i] - mean;
    num += d0 * c[i];
    denom += d0 * d0;
    const double d1 = x[i + 1] - mean;
    num += d1 * c[i + 1];
    denom += d1 * d1;
    const double d2 = x[i + 2] - mean;
    num += d2 * c[i + 2];
    denom += d2 * d2;
    const double d3 = x[i + 3] - mean;
    num += d3 * c[i + 3];
    denom += d3 * d3;
  }
  for (; i < n; ++i) {
    const double d = x[i] - mean;
    num += d * c[i];
    denom += d * d;
  }
  num_out = num;
  denom_out = denom;
}

// Fused Pearson pass: cov/va/vb are three independent accumulator
// chains, each advancing in naive sequential order — bit-identical to
// the naive Pearson loop of the test oracle.
inline void seq_cross(const double* a, const double* b, std::size_t n,
                      double ma, double mb, double& cov_out, double& va_out,
                      double& vb_out) noexcept {
  double cov = 0.0, va = 0.0, vb = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double da0 = a[i] - ma;
    const double db0 = b[i] - mb;
    cov += da0 * db0;
    va += da0 * da0;
    vb += db0 * db0;
    const double da1 = a[i + 1] - ma;
    const double db1 = b[i + 1] - mb;
    cov += da1 * db1;
    va += da1 * da1;
    vb += db1 * db1;
    const double da2 = a[i + 2] - ma;
    const double db2 = b[i + 2] - mb;
    cov += da2 * db2;
    va += da2 * da2;
    vb += db2 * db2;
    const double da3 = a[i + 3] - ma;
    const double db3 = b[i + 3] - mb;
    cov += da3 * db3;
    va += da3 * da3;
    vb += db3 * db3;
  }
  for (; i < n; ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  cov_out = cov;
  va_out = va;
  vb_out = vb;
}

// The scalar despread of one window against chips c[0..n), given its
// sum in index order.
inline double score_window(const double* x, const double* c, std::size_t n,
                           double sum) noexcept {
  const double mean = sum / static_cast<double>(n);
  double num = 0.0, denom = 0.0;
  seq_correlate(x, c, n, mean, num, denom);
  if (denom <= 0.0) return 0.0;  // a flat window carries no mark
  return num / std::sqrt(denom * static_cast<double>(n));
}

// Offsets per call of the baseline-ISA (SSE2) blocked despread: two
// offsets per 128-bit lane, four accumulators (two a pass in a family).
constexpr std::size_t kBaselineBlockOffsets = 8;

// Codes per run of the exact family path's block loop: the scores of
// one block for this many codes fit a 4 KiB stack buffer, and their
// chips stay in L2 while the block loop walks the offsets.
constexpr std::size_t kFamilyChunk = 32;

// Keeps the better of `b` and (corr, off).  Strict >: offsets arrive in
// increasing order, so the earliest offset wins a tie.
inline void consider(ScanResult& b, double corr, std::size_t off) {
  if (corr > b.best.correlation) {
    b.best.correlation = corr;
    b.offset = off;
  }
}

// A best-so-far below any achievable score.
ScanResult unscored() {
  ScanResult r;
  r.best.correlation = -2.0;
  return r;
}

// The exact family path: every offset of every code despread, full
// blocks through the family scorer and the offsets after the last full
// block through the scalar despread.
void exact_family(const double* x, std::size_t last_offset, std::size_t n,
                  const detail::ScanCode* codes, std::size_t count,
                  ScanResult* best) {
  std::fill_n(best, count, unscored());
  // A full block starting at `off` reads up to x[off + block - 1 + n - 1],
  // in bounds because off + block - 1 <= last_offset and the caller's
  // series holds x[last_offset + n - 1].
  const detail::FamilyScorer avx2 = detail::avx2_family_scorer();
  const std::size_t block =
      avx2 != nullptr ? detail::kAvx2BlockOffsets : kBaselineBlockOffsets;
  double scores[kFamilyChunk * detail::kAvx2BlockOffsets];
  const double* chips[kFamilyChunk];
  for (std::size_t j0 = 0; j0 < count; j0 += kFamilyChunk) {
    const std::size_t m = std::min(kFamilyChunk, count - j0);
    for (std::size_t j = 0; j < m; ++j) chips[j] = codes[j0 + j].chips;
    std::size_t off = 0;
    for (; off + block <= last_offset + 1; off += block) {
      if (avx2 != nullptr) {
        avx2(x + off, chips, m, n, scores);
      } else {
        detail::despread_family_block<2, 4, 2, 4>(x + off, chips, m, n,
                                                  scores);
      }
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t k = 0; k < block; ++k) {
          consider(best[j0 + j], scores[j * block + k], off + k);
        }
      }
    }
    for (; off <= last_offset; ++off) {
      const double sum = seq_sum(x + off, n);
      for (std::size_t j = 0; j < m; ++j) {
        consider(best[j0 + j], score_window(x + off, chips[j], n, sum), off);
      }
    }
  }
}

// --- The ranked path -----------------------------------------------------
//
// On whole counts every window sum is an exact integer, so the exact
// path's mean is fl(sum / n) in any order of the adds, and the
// correlation X = Σ x_i c_i is an exact integer the int16 lanes compute.
// For one window and code, with the exact path's mean, den and
// q = sqrt(den·n), and S = Σ c_i:
//
//   s = num / q,   num = Σ d_i c_i in index order, d_i = x_i - mean rounded;
//   a = (X - mean·S) · (1/q),   where X - mean·S = N = Σ (x_i - mean) c_i.
//
// With u = 2^-53 and D = Σ |d_i|, to first order:
//   - each d_i is within u|d_i| of x_i - mean, and a sequential sum of n
//     terms is within (n - 1)u D of the exact one: |num - N| <= n u D;
//   - mean·S and the subtraction round once each: u|mean·S| + u|N|;
//   - 1/q, the product and num / q round once each: 3u max(|a|, |s|);
//   - by Cauchy-Schwarz D <= sqrt(n Σ d_i²), which is q to within n u
//     (den is Σ d_i² to within (n + 1)u), and |N|, |num| <= D, so |a|
//     and |s| are at most 1 + n u.
// Together |a - s| <= u (n + 4 + |mean·S| / q).  E is kRankSafety times
// that, taken with the computed 1/q.  The factor covers the second-order
// terms (n·max|x| < 2^31 keeps n u below 2^-22, so they are below 2^-21
// of the first-order ones), E's own rounding, and the rounding of a - E
// and a + E: E >= 20u while |a| < 2, so each rounds by less than E/8,
// and a - E < s < a + E holds strictly.
//
// So an offset whose a + E lies below the greatest a - E of its code
// scores strictly below that code's best, and cannot win even a tie.
// Every other offset is a contender and is despread by the scalar
// despread, the exact path's operations in its order.  A flat window (den <= 0) scores 0.0
// on both paths without a despread: it raises every code's floor to 0,
// and the earliest one stands in for all of them.  E = 0 is not enough:
// small counts give windows whose scores tie or differ in the last
// bits, and a can order them wrongly.
constexpr double kRankSafety = 4.0;
constexpr double kUnitRoundoff = 0x1.0p-53;

// Codes per run of the ranked path: their rankings (a quarter KiB each)
// stay on the stack, and each block's window statistics serve them all,
// the 129 codes of the multiflow scan among them.
constexpr std::size_t kRankCodes = 160;

// Chips per call of a correlate lane, so the int16 window it reads stays
// 4 KiB for any code length.  Even: a chip pair never spans two calls.
constexpr std::size_t kChipSegment = 2048;

constexpr std::size_t kNoOffset = std::numeric_limits<std::size_t>::max();
constexpr double kInf = std::numeric_limits<double>::infinity();

// An offset that may hold its code's best score, and its a + E.
struct Contender {
  std::size_t offset;
  double hi;
};

// One code's ranking so far: `lo` is the greatest a - E seen, a floor
// under the code's best exact score, and `held` the contenders whose
// a + E reaches it, in offset order.  More than a block of them at once
// marks the code for the exact family path.
struct Ranking {
  double lo;
  std::size_t size;
  Contender held[detail::kRankBlock];
};
constexpr std::size_t kOverflow = detail::kRankBlock + 1;

// The ranked path for up to kRankCodes codes.  Needs detail::whole_counts
// and at least one block of offsets.
void rank_codes(const double* x, std::size_t last_offset, std::size_t n,
                const detail::ScanCode* codes, std::size_t m,
                ScanResult* best, const detail::RankLanes& lanes) {
  constexpr std::size_t B = detail::kRankBlock;
  const double nd = static_cast<double>(n);
  const double e_fixed = kRankSafety * kUnitRoundoff * (nd + 4.0);

  Ranking rank[kRankCodes];
  for (std::size_t j = 0; j < m; ++j) {
    rank[j].lo = -kInf;
    rank[j].size = 0;
  }
  std::size_t first_flat = kNoOffset;
  std::int32_t xc[kRankCodes * B];
  std::int16_t xs[B + kChipSegment];
  const std::int16_t* seg_chips[kRankCodes];

  for (std::size_t from = 0; from <= last_offset; from += B) {
    // The last block ends at last_offset; its offsets before `from` were
    // ranked by the block before.
    const std::size_t base = std::min(from, last_offset + 1 - B);
    const std::size_t skip = from - base;
    double mean[B];
    double den[B];
    lanes.stats(x + base, n, mean, den);

    std::fill_n(xc, m * B, 0);
    for (std::size_t i0 = 0; i0 < n; i0 += kChipSegment) {
      const std::size_t len = std::min(kChipSegment, n - i0);
      // The windows of this segment read xs[0 .. B - 2 + len], and one
      // more element for an odd len, where chip n's 0 meets it.
      const std::size_t reach = B - 1 + len;
      for (std::size_t t = 0; t < reach; ++t) {
        xs[t] = static_cast<std::int16_t>(x[base + i0 + t]);
      }
      xs[reach] = 0;
      for (std::size_t j = 0; j < m; ++j) {
        seg_chips[j] = codes[j].chips_i16 + i0;
      }
      lanes.correlate(xs, seg_chips, m, len, xc);
    }

    // Each offset new to this block and not flat is ranked by 1/q; the
    // others get 1/q = 0 and a kill of -inf, so they rank below all.
    // E's mean·S term is taken at the block's largest |mean|/q.
    double recip[B];
    double kill[B];
    double mean_recip = 0.0;
    bool flat = false;
    for (std::size_t k = 0; k < B; ++k) {
      const bool live = k >= skip && den[k] > 0.0;
      recip[k] = live ? 1.0 / std::sqrt(den[k] * nd) : 0.0;
      kill[k] = live ? 0.0 : -kInf;
      mean_recip = std::max(mean_recip, std::fabs(mean[k]) * recip[k]);
      if (k >= skip && !live) {
        flat = true;
        first_flat = std::min(first_flat, base + k);
      }
    }

    for (std::size_t j = 0; j < m; ++j) {
      Ranking& r = rank[j];
      if (r.size == kOverflow) continue;
      const double chip_sum = codes[j].chip_sum;
      double a[B];
      for (std::size_t k = 0; k < B; ++k) {
        a[k] = (static_cast<double>(xc[j * B + k]) - mean[k] * chip_sum) *
                   recip[k] +
               kill[k];
      }
      // A tree of maxima, not one chain of them.
      double top[B / 2];
      for (std::size_t k = 0; k < B / 2; ++k) {
        top[k] = std::max(a[k], a[k + B / 2]);
      }
      for (std::size_t w = B / 4; w > 0; w /= 2) {
        for (std::size_t k = 0; k < w; ++k) {
          top[k] = std::max(top[k], top[k + w]);
        }
      }
      const double a_max = top[0];
      const double e =
          e_fixed + kRankSafety * kUnitRoundoff * std::fabs(chip_sum) *
                        mean_recip;
      double lo = std::max(r.lo, a_max - e);
      if (flat) lo = std::max(lo, 0.0);
      if (lo > r.lo) {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < r.size; ++i) {
          if (r.held[i].hi >= lo) r.held[kept++] = r.held[i];
        }
        r.size = kept;
        r.lo = lo;
      }
      if (!(a_max + e >= lo)) continue;
      for (std::size_t k = skip; k < B; ++k) {
        if (!(a[k] + e >= lo)) continue;
        if (r.size == B) {
          r.size = kOverflow;
          break;
        }
        r.held[r.size++] = Contender{base + k, a[k] + e};
      }
    }
  }

  // Each code's contenders go through the scalar despread in offset
  // order, and the earliest flat window stands in for every flat one.  A
  // code that held too many contenders rescans alone on the exact path.
  for (std::size_t j = 0; j < m; ++j) {
    const Ranking& r = rank[j];
    if (r.size == kOverflow) {
      exact_family(x, last_offset, n, codes + j, 1, best + j);
      continue;
    }
    ScanResult& b = best[j];
    b = unscored();
    for (std::size_t i = 0; i < r.size; ++i) {
      const double* w = x + r.held[i].offset;
      consider(b, score_window(w, codes[j].chips, n, seq_sum(w, n)),
               r.held[i].offset);
    }
    if (first_flat != kNoOffset &&
        (0.0 > b.best.correlation ||
         (0.0 == b.best.correlation && first_flat < b.offset))) {
      b.best.correlation = 0.0;
      b.offset = first_flat;
    }
  }
}

void baseline_stats(const double* x, std::size_t n, double* mean,
                    double* den) noexcept {
  static_assert(detail::kRankBlock == 2 * kBaselineBlockOffsets);
  detail::window_stats<2, 4>(x, n, mean, den);
  detail::window_stats<2, 4>(x + kBaselineBlockOffsets, n,
                             mean + kBaselineBlockOffsets,
                             den + kBaselineBlockOffsets);
}

#if defined(__SSE2__)
// Two codes a pass: eight int32 accumulators of four lanes, for 16
// offsets.
void sse2_correlate(const std::int16_t* x, const std::int16_t* const* chips,
                    std::size_t count, std::size_t n,
                    std::int32_t* out) noexcept {
  detail::correlate_block<4, 2>(x, chips, count, n, out, [](auto a, auto b) {
    return _mm_madd_epi16((__m128i)a, (__m128i)b);
  });
}
#endif

}  // namespace

namespace detail {

bool whole_counts(const double* x, std::size_t size, std::size_t n) noexcept {
  double max_abs = 0.0;
  for (std::size_t i = 0; i < size; ++i) {
    const double a = std::fabs(x[i]);
    if (!(a <= 32767.0) ||
        a != static_cast<double>(static_cast<std::int32_t>(a))) {
      return false;
    }
    max_abs = std::max(max_abs, a);
  }
  return static_cast<double>(n) * max_abs < 0x1.0p31;
}

RankLanes baseline_rank_lanes() noexcept {
  RankLanes lanes;
  lanes.stats = baseline_stats;
#if defined(__SSE2__)
  lanes.correlate = sse2_correlate;
#endif
  return lanes;
}

void scan_family(const double* x, std::size_t last_offset, std::size_t n,
                 const ScanCode* codes, std::size_t count, ScanResult* best) {
  LEXFOR_OBS_PROFILE("watermark.kernel.scan");
  RankLanes lanes = avx2_rank_lanes();
  if (lanes.correlate == nullptr) lanes = baseline_rank_lanes();
  if (count < 2 || lanes.correlate == nullptr ||
      last_offset + 1 < kRankBlock || !whole_counts(x, last_offset + n, n)) {
    exact_family(x, last_offset, n, codes, count, best);
    return;
  }
  // Near-equal runs, so no run is left with a few codes to carry a whole
  // stats pass.
  const std::size_t runs = (count + kRankCodes - 1) / kRankCodes;
  for (std::size_t r = 0; r < runs; ++r) {
    const std::size_t begin = count * r / runs;
    const std::size_t end = count * (r + 1) / runs;
    rank_codes(x, last_offset, n, codes + begin, end - begin, best + begin,
               lanes);
  }
}

}  // namespace detail

CorrelationKernel::CorrelationKernel(PnCode code, double threshold_sigmas)
    : code_(std::move(code)), threshold_sigmas_(threshold_sigmas) {
  chips_f64_.reserve(code_.length());
  chips_i16_.reserve(code_.length() + 1);
  for (const auto chip : code_.chips()) {
    chips_f64_.push_back(static_cast<double>(chip));
    chips_i16_.push_back(chip);
    chip_sum_ += static_cast<double>(chip);
  }
  chips_i16_.push_back(0);
}

double CorrelationKernel::despread(const double* x, std::size_t code_begin,
                                   std::size_t len) const noexcept {
  return score_window(x, chips_f64_.data() + code_begin, len,
                      seq_sum(x, len));
}

double CorrelationKernel::scan_threshold(std::size_t k) const noexcept {
  const double kf = static_cast<double>(k);
  const double sigma_inflation = std::sqrt(2.0 * std::log(std::max(kf, 1.0)));
  return (threshold_sigmas_ + sigma_inflation) /
         std::sqrt(static_cast<double>(chips_f64_.size()));
}

double CorrelationKernel::cross_score(std::span<const double> a,
                                      std::span<const double> b) noexcept {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  const std::size_t len = a.size();
  const double n = static_cast<double>(len);
  const double ma = seq_sum(a.data(), len) / n;
  const double mb = seq_sum(b.data(), len) / n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  seq_cross(a.data(), b.data(), len, ma, mb, cov, va, vb);
  if (va <= 0.0 || vb <= 0.0) return 0.0;
  return cov / std::sqrt(va * vb);
}

Result<CorrelationKernel::Window> CorrelationKernel::window(
    std::span<const double> rates, std::size_t max_offset) const {
  const std::size_t n = chips_f64_.size();
  if (rates.size() < n) {
    return InvalidArgument("scan: series shorter than the code (" +
                           std::to_string(rates.size()) + " < " +
                           std::to_string(n) + ")");
  }
  return Window{
      detail::ScanCode{chips_f64_.data(), chips_i16_.data(), chip_sum_}, n,
      std::min(max_offset, rates.size() - n)};
}

ScanResult CorrelationKernel::decide(ScanResult best,
                                     const Window& window) const noexcept {
  // Bonferroni correction, identical to the naive oracle: scanning k
  // offsets multiplies the null false-positive probability by ~k, so
  // inflate the threshold by sqrt(2 ln k) sigma.
  best.best.threshold = scan_threshold(window.last_offset + 1);
  best.best.detected = best.best.correlation > best.best.threshold;
  return best;
}

Result<ScanResult> CorrelationKernel::scan(std::span<const double> rates,
                                           std::size_t max_offset) const {
  const auto w = window(rates, max_offset);
  if (!w.ok()) return w.status();
  ScanResult best;
  detail::scan_family(rates.data(), w.value().last_offset, w.value().n,
                      &w.value().code, 1, &best);
  return decide(best, w.value());
}

}  // namespace lexfor::watermark
