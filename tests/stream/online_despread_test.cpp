// OnlineDespreader bit-identity: streaming one bin at a time must
// reproduce the batch kernel's verdict EXACTLY — correlation,
// threshold, offset, decision — on randomized flows, codes and offsets
// (bit_cast equality, per the correlate_test pattern), while holding
// O(code length + offset window) memory regardless of stream length.

#include "stream/online_despread.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/rng.h"
#include "watermark/pn_code.h"

namespace lexfor::stream {
namespace {

using watermark::CorrelationKernel;
using watermark::PnCode;
using watermark::ScanResult;

void expect_bit_identical(const ScanResult& online, const ScanResult& batch) {
  EXPECT_EQ(online.offset, batch.offset);
  EXPECT_EQ(online.best.detected, batch.best.detected);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(online.best.correlation),
            std::bit_cast<std::uint64_t>(batch.best.correlation))
      << "correlation " << online.best.correlation << " vs "
      << batch.best.correlation;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(online.best.threshold),
            std::bit_cast<std::uint64_t>(batch.best.threshold))
      << "threshold " << online.best.threshold << " vs "
      << batch.best.threshold;
}

std::vector<double> random_series(const PnCode& code, std::size_t offset,
                                  std::size_t tail, bool marked, double depth,
                                  double noise_sigma, Rng& rng) {
  std::vector<double> rates;
  rates.reserve(offset + code.length() + tail);
  for (std::size_t i = 0; i < offset; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, noise_sigma));
  }
  for (const auto c : code.chips()) {
    const double mark = marked ? 100.0 * depth * static_cast<double>(c) : 0.0;
    rates.push_back(100.0 + mark + rng.normal(0.0, noise_sigma));
  }
  for (std::size_t i = 0; i < tail; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, noise_sigma));
  }
  return rates;
}

TEST(OnlineDespreaderTest, RandomizedStreamingMatchesBatchScanBitForBit) {
  Rng rng{20260805};
  for (int trial = 0; trial < 50; ++trial) {
    const int degree = 5 + static_cast<int>(rng.uniform(5));  // 5..9
    const auto code = PnCode::m_sequence(degree).value();
    const std::size_t embed_offset = rng.uniform(40);
    const bool marked = rng.bernoulli(0.5);
    const double sigma = 1.0 + 30.0 * rng.uniform01();
    const std::size_t max_offset = rng.uniform(64);
    const std::size_t tail = rng.uniform(30);
    const auto rates =
        random_series(code, embed_offset, tail, marked, 0.3, sigma, rng);

    const CorrelationKernel kernel(code);
    OnlineDespreader online(kernel, max_offset);
    for (const double r : rates) (void)online.push(r);

    if (rates.size() >= code.length() + max_offset) {
      ASSERT_TRUE(online.verdict().complete);
      const auto batch = kernel.scan(rates, max_offset);
      ASSERT_TRUE(batch.ok());
      expect_bit_identical(online.verdict().scan, batch.value());
    } else {
      // Not enough bins to close the window: verdict still pending,
      // exactly like batch scan would clamp to fewer offsets.
      EXPECT_FALSE(online.verdict().complete);
    }
  }
}

TEST(OnlineDespreaderTest, AlignedStreamMatchesDetectorDetectBitForBit) {
  // max_offset = 0 is the tornet posture: the online verdict must equal
  // the aligned batch scan on the same bins, bit for bit.
  Rng rng{77};
  for (int trial = 0; trial < 30; ++trial) {
    const int degree = 5 + static_cast<int>(rng.uniform(5));
    const auto code = PnCode::m_sequence(degree).value();
    const bool marked = rng.bernoulli(0.5);
    const double sigma = 1.0 + 20.0 * rng.uniform01();
    const auto rates = random_series(code, 0, 0, marked, 0.35, sigma, rng);

    const CorrelationKernel kernel(code);
    OnlineDespreader online(kernel, 0);
    for (const double r : rates) (void)online.push(r);
    ASSERT_TRUE(online.verdict().complete);

    const auto batch = kernel.scan(rates, 0);
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(online.verdict().scan.offset, 0u);
    EXPECT_EQ(online.verdict().scan.best.detected,
              batch.value().best.detected);
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(online.verdict().scan.best.correlation),
        std::bit_cast<std::uint64_t>(batch.value().best.correlation));
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(online.verdict().scan.best.threshold),
        std::bit_cast<std::uint64_t>(batch.value().best.threshold));
  }
}

TEST(OnlineDespreaderTest, MovedMidStreamKeepsTheVerdictBitForBit) {
  // The despreader owns its window, and a move carries the bins already
  // pushed: moved before the first offset closes, mid-way through the
  // code, or with offsets already scored, it finishes with the verdict
  // of a despreader that never moved.
  Rng rng{1808};
  const auto code = PnCode::m_sequence(7).value();  // 127 chips
  const CorrelationKernel kernel(code);
  constexpr std::size_t kMaxOffset = 9;
  const auto rates = random_series(code, 4, kMaxOffset - 4, true, 0.3, 5.0,
                                   rng);
  ASSERT_EQ(rates.size(), code.length() + kMaxOffset);
  for (const std::size_t split : {std::size_t{1}, std::size_t{64},
                                  code.length() + 3}) {
    SCOPED_TRACE(testing::Message() << "moved after " << split << " bins");
    OnlineDespreader unmoved(kernel, kMaxOffset);
    OnlineDespreader first(kernel, kMaxOffset);
    for (std::size_t t = 0; t < split; ++t) {
      (void)unmoved.push(rates[t]);
      (void)first.push(rates[t]);
    }
    OnlineDespreader moved(std::move(first));
    for (std::size_t t = split; t < rates.size(); ++t) {
      (void)unmoved.push(rates[t]);
      (void)moved.push(rates[t]);
    }
    ASSERT_TRUE(moved.verdict().complete);
    expect_bit_identical(moved.verdict().scan, unmoved.verdict().scan);
    EXPECT_EQ(moved.verdict().offsets_scored, kMaxOffset + 1);
    EXPECT_EQ(moved.bins_consumed(), rates.size());
    EXPECT_EQ(moved.verdict().scan.offset, 4u);
  }
}

TEST(OnlineDespreaderTest, EmitsPerOffsetScoresInIncreasingOrderAtTheRightBin) {
  const auto code = PnCode::m_sequence(6).value();  // n = 63
  const std::size_t n = code.length();
  const CorrelationKernel kernel(code);
  const std::size_t max_offset = 5;
  OnlineDespreader online(kernel, max_offset);

  Rng rng{11};
  std::vector<double> rates;
  for (std::size_t i = 0; i < n + max_offset; ++i) {
    rates.push_back(50.0 + rng.normal(0.0, 10.0));
  }

  std::size_t expected_offset = 0;
  for (std::size_t t = 0; t < rates.size(); ++t) {
    const auto score = online.push(rates[t]);
    if (t + 1 < n) {
      EXPECT_FALSE(score.has_value()) << "bin " << t;
    } else {
      // Bin t closes the window starting at t - n + 1.
      ASSERT_TRUE(score.has_value()) << "bin " << t;
      EXPECT_EQ(score->offset, expected_offset);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(score->correlation),
                std::bit_cast<std::uint64_t>(
                    kernel.despread(rates.data() + score->offset, 0, n)));
      ++expected_offset;
    }
  }
  EXPECT_EQ(online.verdict().offsets_scored, max_offset + 1);
}

TEST(OnlineDespreaderTest, ExtraBinsAfterCompletionAreCountedAndIgnored) {
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  OnlineDespreader online(kernel, 2);

  Rng rng{3};
  for (std::size_t i = 0; i < code.length() + 2; ++i) {
    (void)online.push(40.0 + rng.normal(0.0, 5.0));
  }
  ASSERT_TRUE(online.verdict().complete);
  const auto frozen = online.verdict().scan;

  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(online.push(1e6).has_value());
  }
  EXPECT_EQ(online.bins_ignored(), 100u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(online.verdict().scan.best.correlation),
            std::bit_cast<std::uint64_t>(frozen.best.correlation));
  EXPECT_EQ(online.verdict().scan.offset, frozen.offset);
}

TEST(OnlineDespreaderTest, MemoryStaysConstantOverArbitrarilyLongStreams) {
  const auto code = PnCode::m_sequence(7).value();  // n = 127
  const CorrelationKernel kernel(code);
  const std::size_t max_offset = 32;
  OnlineDespreader online(kernel, max_offset);

  // One flat window: every bin a candidate offset can read, presized.
  const std::size_t expected = code.length() + max_offset;
  EXPECT_EQ(online.memory_doubles(), expected);
  Rng rng{9};
  for (std::size_t i = 0; i < 20 * code.length(); ++i) {
    (void)online.push(rng.normal(100.0, 10.0));
    ASSERT_EQ(online.memory_doubles(), expected);
  }
}

}  // namespace
}  // namespace lexfor::stream
