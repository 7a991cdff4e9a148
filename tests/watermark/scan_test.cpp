// Alignment-free (offset-scan) watermark detection.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "util/rng.h"
#include "watermark/correlate.h"

namespace lexfor::watermark {
namespace {

PnCode code9() { return PnCode::m_sequence(9).value(); }

std::vector<double> marked_series(const PnCode& code, std::size_t offset,
                                  double depth, double noise_sigma,
                                  Rng& rng) {
  std::vector<double> rates(offset, 100.0);
  for (std::size_t i = 0; i < offset; ++i) {
    rates[i] += rng.normal(0.0, noise_sigma);
  }
  for (const auto c : code.chips()) {
    rates.push_back(100.0 * (1.0 + depth * c) + rng.normal(0.0, noise_sigma));
  }
  // Some trailing noise bins.
  for (int i = 0; i < 20; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, noise_sigma));
  }
  return rates;
}

TEST(ScanTest, FindsTheEmbedOffset) {
  Rng rng{5};
  const auto code = code9();
  const std::size_t true_offset = 37;
  const auto rates = marked_series(code, true_offset, 0.3, 5.0, rng);
  const CorrelationKernel kernel(code);
  const auto r = kernel.scan(rates, 100).value();
  EXPECT_TRUE(r.best.detected);
  EXPECT_EQ(r.offset, true_offset);
}

TEST(ScanTest, ZeroOffsetEquivalentToDirectDetect) {
  // max_offset 0 is direct (aligned) detection: the despread of
  // rates[0..n) against the whole code under the plain 5/sqrt(n)
  // threshold, which k = 1 offset does not inflate.
  Rng rng{7};
  const auto code = code9();
  const auto rates = marked_series(code, 0, 0.3, 5.0, rng);
  const CorrelationKernel kernel(code);
  const auto scanned = kernel.scan(rates, 0).value();
  const double direct = kernel.despread(rates.data(), 0, code.length());
  EXPECT_EQ(scanned.offset, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(scanned.best.correlation),
            std::bit_cast<std::uint64_t>(direct));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(scanned.best.threshold),
            std::bit_cast<std::uint64_t>(5.0 / std::sqrt(511.0)));
  EXPECT_TRUE(scanned.best.detected);
}

TEST(ScanTest, ScanningRaisesTheThreshold) {
  Rng rng{9};
  const auto code = code9();
  const auto rates = marked_series(code, 10, 0.3, 5.0, rng);
  const CorrelationKernel kernel(code);
  const auto direct = kernel.scan(rates, 0).value().best;
  const auto scanned = kernel.scan(rates, 50).value();
  // Bonferroni inflation: the scan threshold must exceed the direct one.
  EXPECT_GT(scanned.best.threshold, direct.threshold);
}

TEST(ScanTest, PureNoiseSurvivesScanWithoutFalsePositive) {
  Rng rng{11};
  const auto code = code9();
  const CorrelationKernel kernel(code);
  int false_positives = 0;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> noise;
    for (std::size_t i = 0; i < code.length() + 100; ++i) {
      noise.push_back(100.0 + rng.normal(0.0, 20.0));
    }
    const auto r = kernel.scan(noise, 100).value();
    false_positives += r.best.detected;
  }
  EXPECT_EQ(false_positives, 0);
}

TEST(ScanTest, RejectsShortSeries) {
  const auto code = code9();
  const CorrelationKernel kernel(code);
  const std::vector<double> short_series(code.length() - 1, 1.0);
  const auto r = kernel.scan(short_series, 10);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(),
            "scan: series shorter than the code (510 < 511)");
}

TEST(ScanTest, MaxOffsetClampsToSeriesLength) {
  Rng rng{13};
  const auto code = code9();
  const auto rates = marked_series(code, 5, 0.3, 5.0, rng);
  const CorrelationKernel kernel(code);
  // Asking for a huge offset range must not read past the end.
  const auto r = kernel.scan(rates, 1u << 20).value();
  EXPECT_TRUE(r.best.detected);
  EXPECT_EQ(r.offset, 5u);
}

}  // namespace
}  // namespace lexfor::watermark
