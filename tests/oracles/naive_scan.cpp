#include "oracles/naive_scan.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace lexfor::oracles {

Result<watermark::ScanResult> naive_scan(const watermark::PnCode& code,
                                         std::span<const double> rates,
                                         std::size_t max_offset,
                                         double threshold_sigmas) {
  const std::size_t n = code.length();
  if (rates.size() < n) {
    return InvalidArgument("naive_scan: series shorter than the code");
  }
  const std::size_t last_offset = std::min(max_offset, rates.size() - n);

  // Bonferroni correction: scanning k offsets multiplies the null
  // false-positive probability by ~k; raise the threshold accordingly.
  // For a Gaussian tail, adding sqrt(2 ln k) sigma is a simple, safe
  // inflation at the scales used here.
  const double k = static_cast<double>(last_offset + 1);
  const double sigma_inflation = std::sqrt(2.0 * std::log(std::max(k, 1.0)));
  const double adjusted_sigmas = threshold_sigmas + sigma_inflation;
  const auto& chips = code.chips();

  watermark::ScanResult best;
  best.best.correlation = -2.0;  // below any achievable value
  for (std::size_t off = 0; off <= last_offset; ++off) {
    const std::vector<double> window(
        rates.begin() + static_cast<std::ptrdiff_t>(off),
        rates.begin() + static_cast<std::ptrdiff_t>(off + n));
    double mean = 0.0;
    for (std::size_t i = 0; i < n; ++i) mean += window[i];
    mean /= static_cast<double>(n);

    double num = 0.0, denom = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double x = window[i] - mean;
      num += x * static_cast<double>(chips[i]);
      denom += x * x;
    }

    watermark::DetectionResult r;
    r.threshold = adjusted_sigmas / std::sqrt(static_cast<double>(n));
    if (denom <= 0.0) {
      r.correlation = 0.0;  // a perfectly flat window carries no mark
    } else {
      r.correlation = num / std::sqrt(denom * static_cast<double>(n));
    }
    r.detected = r.correlation > r.threshold;
    if (r.correlation > best.best.correlation) {
      best.best = r;
      best.offset = off;
    }
  }
  return best;
}

}  // namespace lexfor::oracles
