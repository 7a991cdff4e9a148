#include "watermark/dsss.h"

#include <gtest/gtest.h>

#include "util/rng.h"
#include "watermark/correlate.h"

namespace lexfor::watermark {
namespace {

PnCode code9() { return PnCode::m_sequence(9).value(); }

EmbedParams params(double chip_ms = 100.0, double depth = 0.3) {
  EmbedParams p;
  p.start = SimTime::from_sec(1.0);
  p.chip_duration = SimDuration::from_ms(chip_ms);
  p.depth = depth;
  return p;
}

TEST(EmbedderTest, MultiplierIsOneOutsideCodeWindow) {
  const Embedder emb(code9(), params());
  EXPECT_DOUBLE_EQ(emb.multiplier(SimTime::from_sec(0.5)), 1.0);
  EXPECT_DOUBLE_EQ(emb.multiplier(emb.end() + SimDuration::from_ms(1)), 1.0);
}

TEST(EmbedderTest, MultiplierFollowsChips) {
  const auto code = code9();
  const Embedder emb(code, params(100.0, 0.25));
  for (std::size_t i = 0; i < code.length(); i += 13) {
    const SimTime mid = SimTime::from_sec(1.0) +
                        SimDuration::from_ms(100.0 * static_cast<double>(i) + 50.0);
    const double expected = 1.0 + 0.25 * static_cast<double>(code.chips()[i]);
    EXPECT_DOUBLE_EQ(emb.multiplier(mid), expected) << "chip " << i;
  }
}

TEST(EmbedderTest, EndMatchesCodeLength) {
  const auto code = code9();
  const Embedder emb(code, params(100.0));
  const double expected_sec =
      1.0 + 0.1 * static_cast<double>(code.length());
  EXPECT_NEAR(emb.end().seconds(), expected_sec, 1e-9);
}

TEST(DetectorTest, RejectsShortSeries) {
  const CorrelationKernel kernel(code9());
  const std::vector<double> too_short(10, 1.0);
  EXPECT_EQ(kernel.scan(too_short, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DetectorTest, FlatSeriesIsNotDetected) {
  const CorrelationKernel kernel(code9());
  const std::vector<double> flat(code9().length(), 100.0);
  const auto r = kernel.scan(flat, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().best.detected);
  EXPECT_DOUBLE_EQ(r.value().best.correlation, 0.0);
}

TEST(DetectorTest, CleanMarkIsDetected) {
  const auto code = code9();
  const CorrelationKernel kernel(code);
  std::vector<double> rates;
  for (const auto c : code.chips()) {
    rates.push_back(100.0 * (1.0 + 0.3 * c));
  }
  const auto r = kernel.scan(rates, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().best.detected);
  EXPECT_GT(r.value().best.correlation, 0.9);
}

TEST(DetectorTest, NoisyMarkIsStillDetected) {
  const auto code = code9();
  const CorrelationKernel kernel(code);
  Rng rng{13};
  std::vector<double> rates;
  for (const auto c : code.chips()) {
    // SNR well below 1: noise sigma 3x the mark amplitude.
    rates.push_back(100.0 + 10.0 * c + rng.normal(0.0, 30.0));
  }
  const auto r = kernel.scan(rates, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().best.detected)
      << "corr=" << r.value().best.correlation
      << " thr=" << r.value().best.threshold;
}

TEST(DetectorTest, PureNoiseIsNotDetected) {
  const auto code = code9();
  const CorrelationKernel kernel(code);
  Rng rng{17};
  int false_positives = 0;
  constexpr int kTrials = 200;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> rates;
    for (std::size_t i = 0; i < code.length(); ++i) {
      rates.push_back(100.0 + rng.normal(0.0, 20.0));
    }
    const auto r = kernel.scan(rates, 0);
    ASSERT_TRUE(r.ok());
    false_positives += r.value().best.detected;
  }
  // 5-sigma threshold: essentially zero false positives expected.
  EXPECT_LE(false_positives, 1);
}

TEST(DetectorTest, WrongCodeDoesNotDespreadTheMark) {
  const auto marked_code = PnCode::m_sequence(9, 1).value();
  const auto wrong_code = PnCode::m_sequence(9, 101).value();
  std::vector<double> rates;
  for (const auto c : marked_code.chips()) {
    rates.push_back(100.0 * (1.0 + 0.3 * c));
  }
  const CorrelationKernel kernel(wrong_code);
  const auto r = kernel.scan(rates, 0);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value().best.detected)
      << "phase-shifted code must not despread the mark";
}

TEST(DetectorTest, LongerCodesTolerateMoreNoise) {
  // Property the paper's §IV.B technique depends on: processing gain
  // grows with code length.
  Rng rng{21};
  const double noise_sigma = 60.0;
  const double mark = 10.0;

  auto detection_rate = [&](int degree) {
    const auto code = PnCode::m_sequence(degree).value();
    const CorrelationKernel kernel(code, 4.0);
    int detected = 0;
    constexpr int kTrials = 60;
    for (int t = 0; t < kTrials; ++t) {
      std::vector<double> rates;
      for (const auto c : code.chips()) {
        rates.push_back(100.0 + mark * c + rng.normal(0.0, noise_sigma));
      }
      detected += kernel.scan(rates, 0).value().best.detected;
    }
    return static_cast<double>(detected) / kTrials;
  };

  const double short_code = detection_rate(5);   // 31 chips
  const double long_code = detection_rate(11);   // 2047 chips
  EXPECT_GT(long_code, short_code);
  EXPECT_GT(long_code, 0.9);
}

TEST(DetectorTest, ExtraTrailingBinsAreIgnored) {
  const auto code = PnCode::m_sequence(6).value();
  const CorrelationKernel kernel(code);
  std::vector<double> rates;
  for (const auto c : code.chips()) rates.push_back(100.0 * (1.0 + 0.3 * c));
  const auto exact = kernel.scan(rates, 0).value().best;
  rates.push_back(9999.0);
  rates.push_back(0.0);
  const auto padded = kernel.scan(rates, 0).value().best;
  EXPECT_DOUBLE_EQ(exact.correlation, padded.correlation);
}

}  // namespace
}  // namespace lexfor::watermark
