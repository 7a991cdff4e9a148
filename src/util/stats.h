// Sample statistics used by the timing investigator.

#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace lexfor {

// Percentile of a sample set (copies and sorts; fine for bench-sized data).
// p in [0,100]; linear interpolation between closest ranks.
[[nodiscard]] inline double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  if (p <= 0) return xs.front();
  if (p >= 100) return xs.back();
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  if (lo + 1 >= xs.size()) return xs.back();
  return xs[lo] * (1.0 - frac) + xs[lo + 1] * frac;
}

}  // namespace lexfor
