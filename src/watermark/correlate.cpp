#include "watermark/correlate.h"

#include <algorithm>
#include <cmath>

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

// Codes per run of scan_family's block loop: the scores of one block
// for this many codes fit a 4 KiB stack buffer, and their chips stay in
// L2 while the block loop walks the offsets.
constexpr std::size_t kFamilyChunk = 32;

}  // namespace

namespace detail {

void scan_family(const double* x, std::size_t last_offset, std::size_t n,
                 const double* const* chips, std::size_t count,
                 ScanResult* best) {
  LEXFOR_OBS_PROFILE("watermark.kernel.scan");
  const auto consider = [](ScanResult& b, double corr, std::size_t off) {
    if (corr > b.best.correlation) {  // strict >: earliest offset wins
      b.best.correlation = corr;
      b.offset = off;
    }
  };
  for (std::size_t j = 0; j < count; ++j) {
    best[j] = ScanResult{};
    best[j].best.correlation = -2.0;  // below any achievable value
  }
  // A full block starting at `off` reads up to x[off + block - 1 + n - 1],
  // in bounds because off + block - 1 <= last_offset and the caller's
  // series holds x[last_offset + n - 1].
  const FamilyScorer avx2 = avx2_family_scorer();
  const std::size_t block =
      avx2 != nullptr ? kAvx2BlockOffsets : kBaselineBlockOffsets;
  double scores[kFamilyChunk * kAvx2BlockOffsets];
  for (std::size_t j0 = 0; j0 < count; j0 += kFamilyChunk) {
    const std::size_t m = std::min(kFamilyChunk, count - j0);
    std::size_t off = 0;
    for (; off + block <= last_offset + 1; off += block) {
      if (avx2 != nullptr) {
        avx2(x + off, chips + j0, m, n, scores);
      } else {
        despread_family_block<2, 4, 2, 4>(x + off, chips + j0, m, n, scores);
      }
      for (std::size_t j = 0; j < m; ++j) {
        for (std::size_t k = 0; k < block; ++k) {
          consider(best[j0 + j], scores[j * block + k], off + k);
        }
      }
    }
    for (; off <= last_offset; ++off) {
      const double sum = seq_sum(x + off, n);
      for (std::size_t j = j0; j < j0 + m; ++j) {
        consider(best[j], score_window(x + off, chips[j], n, sum), off);
      }
    }
  }
}

}  // namespace detail

CorrelationKernel::CorrelationKernel(PnCode code, double threshold_sigmas)
    : code_(std::move(code)), threshold_sigmas_(threshold_sigmas) {
  chips_f64_.reserve(code_.length());
  for (const auto chip : code_.chips()) {
    chips_f64_.push_back(static_cast<double>(chip));
  }
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
  return Window{chips_f64_.data(), n, std::min(max_offset, rates.size() - n)};
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
                      &w.value().chips, 1, &best);
  return decide(best, w.value());
}

}  // namespace lexfor::watermark
