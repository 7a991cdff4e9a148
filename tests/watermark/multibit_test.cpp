#include "watermark/multibit.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "oracles/naive_scan.h"
#include "util/rng.h"

namespace lexfor::watermark {
namespace {

PnCode code10() { return PnCode::m_sequence(10).value(); }  // 1023 chips

MultiBitParams params(std::size_t chips_per_bit = 63) {
  MultiBitParams p;
  p.start = SimTime::zero();
  p.chip_duration = SimDuration::from_ms(100.0);
  p.depth = 0.3;
  p.chips_per_bit = chips_per_bit;
  return p;
}

std::vector<std::int8_t> payload16() {
  return {1, -1, -1, 1, 1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, -1};
}

TEST(MultiBitTest, CreateValidatesInputs) {
  EXPECT_FALSE(MultiBitEmbedder::create(code10(), {}, params()).ok());
  EXPECT_FALSE(MultiBitEmbedder::create(code10(), {1, 0, -1}, params()).ok());
  auto zero_l = params();
  zero_l.chips_per_bit = 0;
  EXPECT_FALSE(MultiBitEmbedder::create(code10(), {1, -1}, zero_l).ok());
  // 17 bits x 63 chips = 1071 > 1023: too long.
  std::vector<std::int8_t> too_many(17, 1);
  EXPECT_FALSE(MultiBitEmbedder::create(code10(), too_many, params()).ok());
  EXPECT_TRUE(MultiBitEmbedder::create(code10(), payload16(), params()).ok());
}

TEST(MultiBitTest, CreateRejectsChipShorterThanOneMicrosecond) {
  // multiplier() divides by the chip duration in whole microseconds.
  auto p = params();
  for (const std::int64_t us : {std::int64_t{0}, std::int64_t{-5}}) {
    p.chip_duration = SimDuration::from_us(us);
    const auto r = MultiBitEmbedder::create(code10(), payload16(), p);
    ASSERT_FALSE(r.ok()) << us;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << us;
  }
  p.chip_duration = SimDuration::from_us(1);
  EXPECT_TRUE(MultiBitEmbedder::create(code10(), payload16(), p).ok());
}

TEST(MultiBitTest, MultiplierEncodesBitTimesChip) {
  const auto code = code10();
  const auto emb =
      MultiBitEmbedder::create(code, payload16(), params()).value();
  const auto bits = payload16();
  for (std::size_t chip = 0; chip < 16 * 63; chip += 97) {
    const SimTime mid = SimTime::from_ms(100.0 * static_cast<double>(chip) + 50.0);
    const double expected =
        1.0 + 0.3 * static_cast<double>(bits[chip / 63]) *
                  static_cast<double>(code.chips()[chip]);
    EXPECT_DOUBLE_EQ(emb.multiplier(mid), expected) << "chip " << chip;
  }
}

TEST(MultiBitTest, MultiplierIsOneOutsideTheMark) {
  auto p = params();
  p.start = SimTime::from_sec(5.0);
  const auto emb = MultiBitEmbedder::create(code10(), payload16(), p).value();
  // The mark spans 16 bits x 63 chips of 100 ms from its start.
  const SimTime end = p.start + p.chip_duration * (16 * 63);
  EXPECT_NEAR(end.seconds(), 5.0 + 16 * 63 * 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(emb.multiplier(SimTime{p.start.us - 1}), 1.0);
  EXPECT_NE(emb.multiplier(p.start), 1.0);
  EXPECT_NE(emb.multiplier(SimTime{end.us - 1}), 1.0);
  EXPECT_DOUBLE_EQ(emb.multiplier(end), 1.0);
  EXPECT_DOUBLE_EQ(emb.multiplier(end + SimDuration::from_ms(1)), 1.0);
}

TEST(MultiBitTest, CleanSignalDecodesPerfectly) {
  const auto code = code10();
  const auto bits = payload16();
  std::vector<double> rates;
  for (std::size_t chip = 0; chip < bits.size() * 63; ++chip) {
    rates.push_back(100.0 * (1.0 + 0.3 * bits[chip / 63] *
                                       code.chips()[chip]));
  }
  const MultiBitDecoder decoder(code, 63);
  const auto r = decoder.decode_and_compare(rates, bits).value();
  EXPECT_DOUBLE_EQ(r.bit_error_rate, 0.0);
  EXPECT_EQ(r.bits, bits);
}

TEST(MultiBitTest, NoisySignalDecodesWithLowBer) {
  const auto code = code10();
  const auto bits = payload16();
  Rng rng{3};
  std::vector<double> rates;
  for (std::size_t chip = 0; chip < bits.size() * 63; ++chip) {
    rates.push_back(100.0 + 30.0 * bits[chip / 63] * code.chips()[chip] +
                    rng.normal(0.0, 60.0));  // SNR 0.5 per chip
  }
  const MultiBitDecoder decoder(code, 63);
  const auto r = decoder.decode_and_compare(rates, bits).value();
  EXPECT_LE(r.bit_error_rate, 1.0 / 16.0);  // at most one bit wrong
}

TEST(MultiBitTest, BaselineDriftIsToleratedBySegmentMeans) {
  const auto code = code10();
  const auto bits = payload16();
  std::vector<double> rates;
  for (std::size_t chip = 0; chip < bits.size() * 63; ++chip) {
    const double drift = 0.05 * static_cast<double>(chip);  // slow ramp
    rates.push_back(100.0 + drift +
                    30.0 * bits[chip / 63] * code.chips()[chip]);
  }
  const MultiBitDecoder decoder(code, 63);
  const auto r = decoder.decode_and_compare(rates, bits).value();
  EXPECT_DOUBLE_EQ(r.bit_error_rate, 0.0);
}

TEST(MultiBitTest, DecodeRejectsShortSeries) {
  const MultiBitDecoder decoder(code10(), 63);
  const std::vector<double> short_series(100, 1.0);
  EXPECT_FALSE(decoder.decode(short_series, 16).ok());
}

TEST(MultiBitTest, DecodeRejectsZeroSpreadAndPayloadPastTheCode) {
  const std::vector<double> rates(2048, 100.0);
  const auto zero = MultiBitDecoder(code10(), 0).decode(rates, 4);
  ASSERT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().message(), "multibit decode: chips_per_bit is zero");
  // 17 bits x 63 chips = 1071 > 1023, however long the series.
  const auto past = MultiBitDecoder(code10(), 63).decode(rates, 17);
  ASSERT_FALSE(past.ok());
  EXPECT_EQ(past.status().message(),
            "multibit decode: payload exceeds code length");
}

TEST(MultiBitTest, EachBitScoreMatchesTheNaiveScanOverItsChips) {
  // Bit i despreads series bins [i·L, (i+1)·L) against code chips
  // [i·L, (i+1)·L) around the segment's own mean: the naive scan, at
  // offset 0, of that segment under a code made of those chips.
  // L = 7 is one unrolled step of four plus a tail of three; 63 ends in
  // a tail of three and 100 in none.
  const auto code = code10();
  Rng rng{2028};
  for (const std::size_t chips_per_bit : {7u, 63u, 100u}) {
    const std::size_t n_bits = code.length() / chips_per_bit;
    std::vector<double> rates;
    for (std::size_t chip = 0; chip < n_bits * chips_per_bit; ++chip) {
      const double bit = (chip / chips_per_bit) % 3 == 0 ? -1.0 : 1.0;
      rates.push_back(100.0 + 20.0 * bit * code.chips()[chip] +
                      rng.normal(0.0, 40.0));
    }
    const MultiBitDecoder decoder(code, chips_per_bit);
    const auto got = decoder.decode(rates, n_bits).value();
    ASSERT_EQ(got.correlations.size(), n_bits);
    for (std::size_t b = 0; b < n_bits; ++b) {
      const std::size_t begin = b * chips_per_bit;
      const auto chips =
          std::span(code.chips()).subspan(begin, chips_per_bit);
      const auto segment =
          PnCode::from_chips({chips.begin(), chips.end()}).value();
      const auto series = std::span(rates).subspan(begin, chips_per_bit);
      const auto want = oracles::naive_scan(segment, series, 0).value();
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.correlations[b]),
                std::bit_cast<std::uint64_t>(want.best.correlation))
          << "L " << chips_per_bit << " bit " << b;
      EXPECT_EQ(got.bits[b], want.best.correlation >= 0.0 ? 1 : -1)
          << "L " << chips_per_bit << " bit " << b;
    }
  }
}

TEST(MultiBitTest, LongerSpreadingLowersBerAtFixedNoise) {
  const auto code = code10();
  Rng rng{9};
  auto ber_at = [&](std::size_t chips_per_bit, std::size_t n_bits) {
    std::vector<std::int8_t> bits;
    for (std::size_t i = 0; i < n_bits; ++i) {
      bits.push_back(rng.bernoulli(0.5) ? 1 : -1);
    }
    double total_errors = 0, total_bits = 0;
    constexpr int kTrials = 20;
    for (int t = 0; t < kTrials; ++t) {
      std::vector<double> rates;
      for (std::size_t chip = 0; chip < n_bits * chips_per_bit; ++chip) {
        rates.push_back(100.0 +
                        10.0 * bits[chip / chips_per_bit] * code.chips()[chip] +
                        rng.normal(0.0, 50.0));
      }
      const MultiBitDecoder decoder(code, chips_per_bit);
      const auto r = decoder.decode_and_compare(rates, bits).value();
      total_errors += r.bit_error_rate * static_cast<double>(n_bits);
      total_bits += static_cast<double>(n_bits);
    }
    return total_errors / total_bits;
  };
  // Same noise, same code: 15 chips/bit vs 127 chips/bit.
  const double short_spread = ber_at(15, 8);
  const double long_spread = ber_at(127, 8);
  EXPECT_LT(long_spread, short_spread);
}

}  // namespace
}  // namespace lexfor::watermark
