// Gold codes: families of near-orthogonal PN codes.
//
// Marking ONE flow needs one m-sequence; marking MANY candidate flows
// simultaneously (e.g. every account on the seized server at once, each
// with its own code) needs a family of codes with uniformly low
// cross-correlation, so one flow's mark never despreads under another
// flow's code.  Gold's construction XORs a preferred pair of
// m-sequences at every relative shift, yielding 2^n + 1 codes whose
// pairwise cross-correlation is bounded by ~2^((n+2)/2) / N.

#pragma once

#include <vector>

#include "watermark/pn_code.h"

namespace lexfor::watermark {

class GoldCodeFamily {
 public:
  // Builds the family for `degree` in {5, 6, 7, 9, 10, 11} (degrees where
  // a preferred pair exists and is tabulated here; degree 8 has no
  // preferred pair and is rejected).  The family holds 2^degree + 1
  // codes of length 2^degree - 1.
  static Result<GoldCodeFamily> create(int degree);

  [[nodiscard]] std::size_t size() const noexcept { return codes_.size(); }
  [[nodiscard]] std::size_t code_length() const noexcept {
    return codes_.empty() ? 0 : codes_.front().length();
  }
  [[nodiscard]] const PnCode& code(std::size_t index) const {
    return codes_.at(index);
  }

 private:
  explicit GoldCodeFamily(std::vector<PnCode> codes)
      : codes_(std::move(codes)) {}

  std::vector<PnCode> codes_;
};

}  // namespace lexfor::watermark
