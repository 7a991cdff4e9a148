#include "watermark/dsss.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

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

// chip_index's definition: -1 before the start, offset / duration in
// int64 after it, the code length from the end on.
std::int64_t chip_by_division(const Embedder& emb, SimTime now) {
  if (now < emb.params().start) return -1;
  const std::int64_t chip =
      (now.us - emb.params().start.us) / emb.params().chip_duration.us;
  const auto n = static_cast<std::int64_t>(emb.code().length());
  return chip < n ? chip : n;
}

Embedder embedder_at(std::int64_t start_us, std::int64_t chip_us,
                     int degree = 9) {
  EmbedParams p;
  p.start = SimTime{start_us};
  p.chip_duration = SimDuration{chip_us};
  return Embedder(PnCode::m_sequence(degree).value(), p);
}

TEST(EmbedderTest, ChipIndexMatchesIntegerDivisionAtEveryChipEdge) {
  // Every chip edge of a 511-chip code, and the times 1 and 2 us either
  // side of it, at durations of 1 us, small odd ones, the 400 ms chip,
  // its odd neighbour and a large prime.
  for (const std::int64_t chip_us :
       {std::int64_t{1}, std::int64_t{3}, std::int64_t{7},
        std::int64_t{400'000}, std::int64_t{400'001},
        std::int64_t{999'999'937}}) {
    const Embedder emb = embedder_at(-123'456, chip_us);
    const auto n = static_cast<std::int64_t>(emb.code().length());
    for (std::int64_t chip = 0; chip <= n + 1; ++chip) {
      for (std::int64_t d = -2; d <= 2; ++d) {
        const SimTime now{emb.params().start.us + chip * chip_us + d};
        ASSERT_EQ(emb.chip_index(now), chip_by_division(emb, now))
            << "chip " << chip << " d " << d << " duration " << chip_us;
      }
    }
  }
}

TEST(EmbedderTest, ChipIndexMatchesIntegerDivisionInEveryBinade) {
  // Offsets from every binade up to 2^62, past the 2^52 us where the
  // reciprocal gives way to division.  Per binade, the duration is set so
  // the quotient falls inside a 1,023-chip code (300 to 600), so no
  // clamp hides it; durations of 1 us and a prime check the clamp too.
  Rng rng(4242);
  for (int b = 0; b < 62; ++b) {
    const std::int64_t lo = std::int64_t{1} << b;
    const std::int64_t scaled = std::max<std::int64_t>(1, lo / 300) | 1;
    for (const std::int64_t chip_us :
         {scaled, std::int64_t{1}, std::int64_t{999'999'937}}) {
      const Embedder emb = embedder_at(0, chip_us, 10);
      for (int i = 0; i < 2'000; ++i) {
        const SimTime now{lo + static_cast<std::int64_t>(rng.uniform(
                                   static_cast<std::uint64_t>(lo)))};
        ASSERT_EQ(emb.chip_index(now), chip_by_division(emb, now))
            << "offset " << now.us << " duration " << chip_us;
      }
    }
  }
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
