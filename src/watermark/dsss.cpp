#include "watermark/dsss.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/obs.h"

namespace lexfor::watermark {

Result<DetectionResult> Detector::detect(
    std::span<const double> chip_rates) const {
  LEXFOR_OBS_SPAN(obs::Level::kInfo, "watermark", "detect",
                  "chips=" + std::to_string(code().length()),
                  obs::no_sim_time());
#if LEXFOR_OBS
  const std::uint64_t correlate_start = obs::tracer().wall_now_ns();
#endif
  auto r = kernel_.detect(chip_rates);
#if LEXFOR_OBS
  if (r.ok()) {
    // Correlation cost scales with code length; the histogram is the
    // before/after evidence for any detector optimisation.
    LEXFOR_OBS_HISTOGRAM_RECORD(
        "watermark.correlate_ns",
        static_cast<std::int64_t>(obs::tracer().wall_now_ns() -
                                  correlate_start));
    LEXFOR_OBS_COUNTER_ADD("watermark.detections_run", 1);
    if (r.value().detected) {
      LEXFOR_OBS_COUNTER_ADD("watermark.detections_positive", 1);
    }
  }
#endif
  return r;
}

Result<Detector::ScanResult> Detector::detect_with_scan(
    std::span<const double> rates, std::size_t max_offset) const {
  LEXFOR_OBS_SPAN(obs::Level::kInfo, "watermark", "detect_with_scan",
                  "chips=" + std::to_string(code().length()) +
                      ",max_offset=" + std::to_string(max_offset),
                  obs::no_sim_time());
  return kernel_.scan(rates, max_offset);
}

Result<Detector::ScanResult> Detector::detect_with_scan_reference(
    std::span<const double> rates, std::size_t max_offset) const {
  const std::size_t n = code().length();
  if (rates.size() < n) {
    return InvalidArgument("detect_with_scan: series shorter than the code");
  }
  const std::size_t last_offset = std::min(max_offset, rates.size() - n);

  // Bonferroni correction: scanning k offsets multiplies the null
  // false-positive probability by ~k; raise the threshold accordingly.
  // For a Gaussian tail, adding ln(k)/sqrt(2) sigma is a simple, safe
  // inflation at the scales used here.
  const double k = static_cast<double>(last_offset + 1);
  const double sigma_inflation = std::sqrt(2.0 * std::log(std::max(k, 1.0)));
  const double adjusted_sigmas = kernel_.threshold_sigmas() + sigma_inflation;
  const auto& chips = code().chips();

  ScanResult best;
  best.best.correlation = -2.0;  // below any achievable value
  for (std::size_t off = 0; off <= last_offset; ++off) {
    // Naive from-scratch despread of a copied window, kept deliberately
    // independent of CorrelationKernel so the bit-identity property
    // test compares two implementations, not one with itself.  (The
    // historic version copied the whole tail of the series here even
    // though only n bins are read — the one fix this oracle got.)
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

    DetectionResult r;
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

Result<DetectionResult> Detector::detect_counts(
    const std::vector<std::uint32_t>& chip_counts) const {
  std::vector<double> scratch;
  return detect_counts(chip_counts, scratch);
}

Result<DetectionResult> Detector::detect_counts(
    const std::vector<std::uint32_t>& chip_counts,
    std::vector<double>& scratch) const {
  scratch.clear();
  scratch.reserve(chip_counts.size());
  for (const auto c : chip_counts) scratch.push_back(static_cast<double>(c));
  return detect(scratch);
}

}  // namespace lexfor::watermark
