// Small online/offline statistics helpers used by benches and detectors.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace lexfor {

// Welford online accumulator: mean/variance in one pass, numerically
// stable, no stored samples.
class RunningStats {
 public:
  void add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = n_ == 1 ? x : std::min(min_, x);
    max_ = n_ == 1 ? x : std::max(max_, x);
  }

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  [[nodiscard]] double variance() const noexcept {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  [[nodiscard]] double stddev() const noexcept { return std::sqrt(variance()); }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

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
