// Pseudo-noise (PN) spreading codes.
//
// The traceback technique the paper analyzes in §IV.B ("Long PN Code
// Based DSSS Watermarking", Huang et al., INFOCOM'11) spreads a
// one-bit watermark over a long +-1 pseudo-noise sequence.  We generate
// maximal-length sequences (m-sequences) from Fibonacci LFSRs: length
// 2^n - 1, near-perfect balance, and two-valued autocorrelation — the
// properties that make the embedded mark invisible to a casual observer
// yet detectable by a matched filter.

#pragma once

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace lexfor::watermark {

class PnCode {
 public:
  // Generates the m-sequence for LFSR degree `degree` (3..16 supported),
  // mapped to chips in {-1,+1}.  `seed` selects the starting phase; it
  // must be nonzero (mod 2^degree).
  static Result<PnCode> m_sequence(int degree, std::uint32_t seed = 1);

  // A code of explicit chips; used by tests and by code-composition
  // experiments.  Chips must be +-1.
  static Result<PnCode> from_chips(std::vector<std::int8_t> chips);

  [[nodiscard]] const std::vector<std::int8_t>& chips() const noexcept {
    return chips_;
  }
  [[nodiscard]] std::size_t length() const noexcept { return chips_.size(); }

 private:
  explicit PnCode(std::vector<std::int8_t> chips) : chips_(std::move(chips)) {}
  std::vector<std::int8_t> chips_;
};

}  // namespace lexfor::watermark
