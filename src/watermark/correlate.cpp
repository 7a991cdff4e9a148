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
// the util::pearson reference loop.
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

// Offsets per call of the baseline-ISA (SSE2) blocked despread: two
// offsets per 128-bit lane, four accumulators.
constexpr std::size_t kBaselineBlockOffsets = 8;

}  // namespace

CorrelationKernel::CorrelationKernel(PnCode code, double threshold_sigmas)
    : code_(std::move(code)), threshold_sigmas_(threshold_sigmas) {
  chips_f64_.reserve(code_.length());
  for (const auto chip : code_.chips()) {
    chips_f64_.push_back(static_cast<double>(chip));
  }
}

double CorrelationKernel::despread(const double* x, std::size_t code_begin,
                                   std::size_t len) const noexcept {
  return despread_presummed(x, code_begin, len, seq_sum(x, len));
}

double CorrelationKernel::despread_presummed(const double* x,
                                             std::size_t code_begin,
                                             std::size_t len,
                                             double sum) const noexcept {
  const double mean = sum / static_cast<double>(len);
  double num = 0.0, denom = 0.0;
  seq_correlate(x, chips_f64_.data() + code_begin, len, mean, num, denom);
  if (denom <= 0.0) return 0.0;  // a flat window carries no mark
  return num / std::sqrt(denom * static_cast<double>(len));
}

double CorrelationKernel::scan_threshold(std::size_t k,
                                         std::size_t code_length) const
    noexcept {
  const std::size_t n = code_length == 0 ? chips_f64_.size() : code_length;
  const double kf = static_cast<double>(k);
  const double sigma_inflation = std::sqrt(2.0 * std::log(std::max(kf, 1.0)));
  return (threshold_sigmas_ + sigma_inflation) /
         std::sqrt(static_cast<double>(n));
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

Result<DetectionResult> CorrelationKernel::detect(
    std::span<const double> rates) const {
  const std::size_t n = chips_f64_.size();
  if (rates.size() < n) {
    return InvalidArgument(
        "detect: observed series shorter than the PN code (" +
        std::to_string(rates.size()) + " < " + std::to_string(n) + ")");
  }
  DetectionResult r;
  r.threshold = threshold_sigmas_ / std::sqrt(static_cast<double>(n));
  r.correlation = despread(rates.data(), 0, n);
  r.detected = r.correlation > r.threshold;
  return r;
}

Result<ScanResult> CorrelationKernel::scan(std::span<const double> rates,
                                           std::size_t max_offset,
                                           std::size_t code_begin,
                                           std::size_t code_length) const {
  const std::size_t n = code_length == 0 ? chips_f64_.size() : code_length;
  if (code_begin + n > chips_f64_.size()) {
    return InvalidArgument("scan: code segment [" +
                           std::to_string(code_begin) + ", " +
                           std::to_string(code_begin + n) +
                           ") exceeds the code length " +
                           std::to_string(chips_f64_.size()));
  }
  if (rates.size() < n) {
    return InvalidArgument("detect_with_scan: series shorter than the code");
  }
  const std::size_t last_offset = std::min(max_offset, rates.size() - n);

  LEXFOR_OBS_PROFILE("watermark.kernel.scan");

  // Bonferroni correction, identical to the naive reference: scanning k
  // offsets multiplies the null false-positive probability by ~k, so
  // inflate the threshold by sqrt(2 ln k) sigma.
  const double threshold = scan_threshold(last_offset + 1, n);

  ScanResult best;
  best.best.correlation = -2.0;  // below any achievable value
  best.best.threshold = threshold;
  const auto consider = [&best](double corr, std::size_t off) {
    if (corr > best.best.correlation) {  // strict >: earliest offset wins
      best.best.correlation = corr;
      best.offset = off;
    }
  };
  const double* x = rates.data();
  const double* chips = chips_f64_.data() + code_begin;
  // A full block starting at `off` reads up to x[off + block - 1 + n - 1],
  // in bounds because off + block - 1 <= last_offset <= rates.size() - n.
  const detail::BlockScorer avx2 = detail::avx2_block_scorer();
  const std::size_t block = avx2 != nullptr ? detail::kAvx2BlockOffsets
                                            : kBaselineBlockOffsets;
  double scores[detail::kAvx2BlockOffsets];
  std::size_t off = 0;
  for (; off + block <= last_offset + 1; off += block) {
    if (avx2 != nullptr) {
      avx2(x + off, chips, n, scores);
    } else {
      detail::despread_block<2, 4>(x + off, chips, n, scores);
    }
    for (std::size_t k = 0; k < block; ++k) consider(scores[k], off + k);
  }
  for (; off <= last_offset; ++off) {
    consider(despread(x + off, code_begin, n), off);
  }
  best.best.detected = best.best.correlation > threshold;
  return best;
}

}  // namespace lexfor::watermark
