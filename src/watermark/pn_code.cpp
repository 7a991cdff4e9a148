#include "watermark/pn_code.h"

namespace lexfor::watermark {
namespace {

// Primitive-polynomial tap masks for Fibonacci LFSRs of degree 3..16.
// Index d-3 holds the XOR mask of feedback taps (bit i set = tap at
// stage i+1).  Each yields a maximal-length sequence of period 2^d - 1.
constexpr std::uint32_t kTapMask[] = {
    0b110,                // 3: x^3 + x^2 + 1
    0b1100,               // 4: x^4 + x^3 + 1
    0b10100,              // 5: x^5 + x^3 + 1
    0b110000,             // 6: x^6 + x^5 + 1
    0b1100000,            // 7: x^7 + x^6 + 1
    0b10111000,           // 8: x^8 + x^6 + x^5 + x^4 + 1
    0b100010000,          // 9: x^9 + x^5 + 1
    0b1001000000,         // 10: x^10 + x^7 + 1
    0b10100000000,        // 11: x^11 + x^9 + 1
    0b111000001000,       // 12: x^12 + x^11 + x^10 + x^4 + 1
    0b1110010000000,      // 13: x^13 + x^12 + x^11 + x^8 + 1
    0b11100000000010,     // 14: x^14 + x^13 + x^12 + x^2 + 1
    0b110000000000000,    // 15: x^15 + x^14 + 1
    0b1101000000001000,   // 16: x^16 + x^15 + x^13 + x^4 + 1
};

}  // namespace

Result<PnCode> PnCode::m_sequence(int degree, std::uint32_t seed) {
  if (degree < 3 || degree > 16) {
    return InvalidArgument("PnCode: degree must be in [3,16]");
  }
  const std::uint32_t mask = (1u << degree) - 1;
  std::uint32_t state = seed & mask;
  if (state == 0) {
    return InvalidArgument("PnCode: seed must be nonzero modulo 2^degree");
  }
  const std::uint32_t taps = kTapMask[degree - 3];
  const std::size_t period = (std::size_t{1} << degree) - 1;

  std::vector<std::int8_t> chips;
  chips.reserve(period);
  for (std::size_t i = 0; i < period; ++i) {
    const int out_bit = static_cast<int>(state & 1u);
    chips.push_back(out_bit ? std::int8_t{1} : std::int8_t{-1});
    // Galois right-shift update: the output bit folds the tap mask back
    // into the register, cycling through all 2^degree - 1 nonzero states.
    state >>= 1;
    if (out_bit != 0) state ^= taps;
  }
  return PnCode{std::move(chips)};
}

Result<PnCode> PnCode::from_chips(std::vector<std::int8_t> chips) {
  if (chips.empty()) return InvalidArgument("PnCode: empty chip vector");
  for (const auto c : chips) {
    if (c != 1 && c != -1) {
      return InvalidArgument("PnCode: chips must be +-1");
    }
  }
  return PnCode{std::move(chips)};
}

}  // namespace lexfor::watermark
