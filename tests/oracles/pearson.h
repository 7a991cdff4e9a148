// The naive Pearson correlation: the bit-identity oracle for
// watermark::CorrelationKernel::cross_score, which scores the passive
// flow-correlation baseline.

#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

namespace lexfor::oracles {

// Pearson correlation of two equal-length series; 0 if degenerate
// (mismatched lengths, fewer than two samples, zero variance).
[[nodiscard]] inline double pearson(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2) return 0.0;
  const auto n = static_cast<double>(a.size());
  double ma = 0, mb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0, va = 0, vb = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va <= 0 || vb <= 0) return 0.0;
  return cov / std::sqrt(va * vb);
}

}  // namespace lexfor::oracles
