// Multi-bit DSSS watermarking.
//
// The cited technique ("Long PN Code Based DSSS Watermarking",
// INFOCOM'11) embeds a multi-bit watermark: bit i (+-1) multiplies
// chips [i*L, (i+1)*L) of a long PN code, and the product modulates the
// traffic rate.  The decoder despreads each segment separately,
// recovering the bit sequence; bit error rate (BER) is the fidelity
// metric.  A multi-bit mark lets the investigator embed a case id or
// timestamp rather than a bare presence signal.

#pragma once

#include <span>
#include <vector>

#include "util/sim_time.h"
#include "watermark/correlate.h"
#include "watermark/pn_code.h"

namespace lexfor::watermark {

struct MultiBitParams {
  SimTime start;
  SimDuration chip_duration = SimDuration::from_ms(400.0);  // >= 1 us
  double depth = 0.3;
  std::size_t chips_per_bit = 63;  // spreading factor L
};

class MultiBitEmbedder {
 public:
  // `bits` in {-1,+1}; requires code.length() >= bits.size() * chips_per_bit.
  static Result<MultiBitEmbedder> create(PnCode code,
                                         std::vector<std::int8_t> bits,
                                         MultiBitParams params);

  // Rate multiplier at `now`: 1 + depth * bit[i] * chip[j] within the
  // mark window, 1.0 outside.
  [[nodiscard]] double multiplier(SimTime now) const noexcept;

  [[nodiscard]] std::size_t payload_bits() const noexcept {
    return bits_.size();
  }

 private:
  MultiBitEmbedder(PnCode code, std::vector<std::int8_t> bits,
                   MultiBitParams params)
      : code_(std::move(code)), bits_(std::move(bits)), params_(params) {}

  PnCode code_;
  std::vector<std::int8_t> bits_;
  MultiBitParams params_;
};

struct MultiBitDecodeResult {
  std::vector<std::int8_t> bits;       // decoded +-1 per segment
  std::vector<double> correlations;    // per-segment despread score
  // Filled by decode_and_compare: fraction of bits decoded wrongly.
  double bit_error_rate = 0.0;
};

class MultiBitDecoder {
 public:
  MultiBitDecoder(PnCode code, std::size_t chips_per_bit)
      : kernel_(std::move(code)), chips_per_bit_(chips_per_bit) {}

  // `chip_rates`: observed rate per chip window, aligned with chip 0.
  // Decodes `num_bits` bits, which needs num_bits * L chips of both the
  // code and the series.  Bit i despreads x[i·L, (i+1)·L) against
  // chips [i·L, (i+1)·L) through CorrelationKernel::despread
  // (segment-local mean removal, zero per-bit allocation).
  [[nodiscard]] Result<MultiBitDecodeResult> decode(
      std::span<const double> chip_rates, std::size_t num_bits) const;

  // Decodes and scores against the ground-truth bits.
  [[nodiscard]] Result<MultiBitDecodeResult> decode_and_compare(
      std::span<const double> chip_rates,
      const std::vector<std::int8_t>& truth) const;

 private:
  CorrelationKernel kernel_;
  std::size_t chips_per_bit_;
};

}  // namespace lexfor::watermark
