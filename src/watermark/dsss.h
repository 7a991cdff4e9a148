// DSSS traffic watermarking: embedder and matched-filter detector.
//
// §IV.B of the paper: "By slightly modifying the traffic rate with an
// embedded PN code at the seized web-server and collecting the traffic
// rate at the suspect's ISP (they do not need to collect the entire
// packet, so they do not need a wiretap warrant), they can identify the
// suspect in the anonymous network system."
//
// The embedder turns a PN code into a rate-multiplier function (1 + d
// during a +1 chip, 1 - d during a -1 chip).  The detector bins the far
// side's packet arrivals into chip-width windows, removes the mean, and
// correlates against the code; the normalized score is compared against
// a threshold calibrated to the code length.  The correlation math
// itself lives in CorrelationKernel (correlate.h); Detector is the
// instrumented, Result-returning front end.

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/sim_time.h"
#include "watermark/correlate.h"
#include "watermark/pn_code.h"

namespace lexfor::watermark {

struct EmbedParams {
  SimTime start;                 // when chip 0 begins
  SimDuration chip_duration = SimDuration::from_ms(500.0);
  double depth = 0.3;            // fractional rate modulation amplitude
};

// Produces the instantaneous rate multiplier for a FlowSource.
class Embedder {
 public:
  Embedder(PnCode code, EmbedParams params)
      : code_(std::move(code)), params_(params) {}

  // 1 +- depth during the code window, exactly 1.0 outside it.
  [[nodiscard]] double multiplier(SimTime now) const noexcept {
    if (now < params_.start) return 1.0;
    const std::int64_t elapsed = now.us - params_.start.us;
    const auto chip_idx =
        static_cast<std::size_t>(elapsed / params_.chip_duration.us);
    if (chip_idx >= code_.length()) return 1.0;
    return 1.0 + params_.depth * static_cast<double>(code_.chips()[chip_idx]);
  }

  [[nodiscard]] SimTime end() const noexcept {
    return params_.start +
           params_.chip_duration * static_cast<std::int64_t>(code_.length());
  }
  [[nodiscard]] const PnCode& code() const noexcept { return code_; }
  [[nodiscard]] const EmbedParams& params() const noexcept { return params_; }

 private:
  PnCode code_;
  EmbedParams params_;
};

// Matched-filter detector.
class Detector {
 public:
  // `threshold_sigmas`: decision threshold in units of the null-model
  // standard deviation 1/sqrt(N) (N = code length).  5 sigma keeps the
  // false-positive rate negligible for the code lengths used here.
  explicit Detector(PnCode code, double threshold_sigmas = 5.0)
      : kernel_(std::move(code), threshold_sigmas) {}

  // `chip_rates` holds the observed traffic rate per chip window, aligned
  // with chip 0 (the investigator controls the embed start, §IV.B).
  // Extra trailing bins are ignored; short series are an error.  The
  // series is read in place — no copy, no allocation.
  [[nodiscard]] Result<DetectionResult> detect(
      std::span<const double> chip_rates) const;

  // Convenience: converts binned packet counts to rates and detects.
  // The first form allocates a fresh conversion buffer per call; the
  // second reuses `scratch` (cleared and refilled), which is what hot
  // per-flow loops (tornet::Traceback) use.
  [[nodiscard]] Result<DetectionResult> detect_counts(
      const std::vector<std::uint32_t>& chip_counts) const;
  [[nodiscard]] Result<DetectionResult> detect_counts(
      const std::vector<std::uint32_t>& chip_counts,
      std::vector<double>& scratch) const;

  // Alignment-free detection: when the observer does not know the embed
  // start (no cooperation from the marking side), slide the code over
  // offsets [0, max_offset] and return the best despread.  The threshold
  // is Bonferroni-adjusted for the number of offsets tried so scanning
  // does not inflate the false-positive rate.  Thin wrapper over
  // CorrelationKernel::scan — bit-identical scores to the naive
  // reference below, without its per-offset copies.
  using ScanResult = watermark::ScanResult;
  [[nodiscard]] Result<ScanResult> detect_with_scan(
      std::span<const double> rates, std::size_t max_offset) const;

  // The retained naive per-offset scan: copies each window and
  // recomputes every statistic from scratch through independent plain
  // loops.  Test-only oracle for the kernel's bit-identity contract
  // (and the baseline the A-SCAN bench measures against) — new callers
  // want detect_with_scan.
  [[nodiscard]] Result<ScanResult> detect_with_scan_reference(
      std::span<const double> rates, std::size_t max_offset) const;

  [[nodiscard]] const PnCode& code() const noexcept { return kernel_.code(); }
  [[nodiscard]] const CorrelationKernel& kernel() const noexcept {
    return kernel_;
  }

 private:
  CorrelationKernel kernel_;
};

}  // namespace lexfor::watermark
