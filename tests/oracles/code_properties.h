// The spreading codes' textbook properties, as the tests check them:
// an m-sequence's balance and two-valued autocorrelation, the
// cross-correlation of two codes, and a Gold family's three-valued
// bound.  Only tests ask for them, so they live here rather than on
// watermark::PnCode and GoldCodeFamily.

#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

#include "watermark/gold_code.h"
#include "watermark/pn_code.h"

namespace lexfor::oracles {

// Sum of chips; an m-sequence of length 2^n - 1 has balance exactly -1
// or +1, depending on the mapping.
[[nodiscard]] inline int balance(const watermark::PnCode& code) {
  int sum = 0;
  for (const auto c : code.chips()) sum += c;
  return sum;
}

// Normalized circular autocorrelation at `shift`,
// 1/N sum_i c[i] c[(i + shift) mod N]: for an m-sequence 1 at shift 0
// and -1/N elsewhere.
[[nodiscard]] inline double autocorrelation(const watermark::PnCode& code,
                                            std::size_t shift) {
  const auto& chips = code.chips();
  const std::size_t n = chips.size();
  if (n == 0) return 0.0;
  long acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += chips[i] * chips[(i + shift) % n];
  return static_cast<double>(acc) / static_cast<double>(n);
}

// Normalized cross-correlation of two codes over their common length.
[[nodiscard]] inline double cross_correlation(const watermark::PnCode& a,
                                              const watermark::PnCode& b) {
  const std::size_t n = std::min(a.length(), b.length());
  if (n == 0) return 0.0;
  long acc = 0;
  for (std::size_t i = 0; i < n; ++i) acc += a.chips()[i] * b.chips()[i];
  return static_cast<double>(acc) / static_cast<double>(n);
}

// The theoretical three-valued cross-correlation bound t(n)/N of a Gold
// family of degree n (codes of length N = 2^n - 1): t(n) = 2^((n+2)/2)
// + 1 for even n, 2^((n+1)/2) + 1 for odd n.
[[nodiscard]] inline double gold_cross_correlation_bound(
    const watermark::GoldCodeFamily& family) {
  const std::size_t length = family.code_length();
  const int degree = std::bit_width(length);
  const double n = static_cast<double>(degree);
  const double t = degree % 2 == 0 ? std::exp2((n + 2.0) / 2.0) + 1.0
                                   : std::exp2((n + 1.0) / 2.0) + 1.0;
  return t / static_cast<double>(length);
}

}  // namespace lexfor::oracles
