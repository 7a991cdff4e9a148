// DSSS traffic watermarking: the embedder.
//
// §IV.B of the paper: "By slightly modifying the traffic rate with an
// embedded PN code at the seized web-server and collecting the traffic
// rate at the suspect's ISP (they do not need to collect the entire
// packet, so they do not need a wiretap warrant), they can identify the
// suspect in the anonymous network system."
//
// The embedder turns a PN code into a rate-multiplier function (1 + d
// during a +1 chip, 1 - d during a -1 chip).  Detection bins the far
// side's packet arrivals into chip-width windows, removes the mean, and
// correlates against the code; the normalized score is compared against
// a threshold calibrated to the code length.  That matched filter is
// CorrelationKernel::scan (correlate.h); aligned detection is a scan at
// max_offset 0.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "util/sim_time.h"
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
      : code_(std::move(code)),
        params_(params),
        inv_chip_us_(1.0 / static_cast<double>(params.chip_duration.us)) {}

  // 1 +- depth during the code window, exactly 1.0 outside it.
  [[nodiscard]] double multiplier(SimTime now) const noexcept {
    return chip_multiplier(chip_index(now));
  }

  // The chip `now` falls in: -1 before the start, the code length from
  // the end on.  Non-decreasing in `now` for a positive chip duration.
  // Below 2^52 us the offset times the reciprocal is within one of the
  // quotient (relative error under 2^-52 on a quotient under 2^52 /
  // chip_duration), and one step corrects it; past that it divides.
  [[nodiscard]] std::int64_t chip_index(SimTime now) const noexcept {
    if (now < params_.start) return -1;
    const std::int64_t offset = now.us - params_.start.us;
    const std::int64_t chip_us = params_.chip_duration.us;
    std::int64_t chip = offset;
    if (offset < (std::int64_t{1} << 52) && chip_us > 0) {
      chip = static_cast<std::int64_t>(static_cast<double>(offset) *
                                       inv_chip_us_);
      const std::int64_t rest = offset - chip * chip_us;
      chip += (rest >= chip_us) - (rest < 0);
    } else {
      chip /= chip_us;
    }
    const auto n = static_cast<std::int64_t>(code_.length());
    return chip < n ? chip : n;
  }

  // The multiplier of chip `index`: 1 +- depth inside the code, exactly
  // 1.0 outside it.
  [[nodiscard]] double chip_multiplier(std::int64_t index) const noexcept {
    if (index < 0 || index >= static_cast<std::int64_t>(code_.length())) {
      return 1.0;
    }
    return 1.0 + params_.depth * static_cast<double>(
                                     code_.chips()[static_cast<std::size_t>(
                                         index)]);
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
  double inv_chip_us_;  // 1 / chip_duration.us, for chip_index
};

}  // namespace lexfor::watermark
