// The ranked scan: a family of codes scanning whole counts ranks each
// code's offsets by the exact integer correlation and despreads only the
// offsets that can still win.  Every scan here is held to the naive
// reference (tests/oracles/naive_scan.h) bit for bit: correlation,
// threshold, offset and verdict.  Poisson counts with a planted code,
// small counts full of near-ties, periodic and flat series take the
// ranked path, each scanned by a family of two through ScanBatch and
// alone through CorrelationKernel::scan (one code takes the exact path);
// rates the integer lanes cannot hold take the exact path.  The integer
// lanes are also called directly, each against an int64 sum, and the
// statistics lanes against the scalar loops.  The ScanBatchTest cases
// run in the TSan stage too.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "oracles/naive_scan.h"
#include "util/rng.h"
#include "watermark/correlate.h"
#include "watermark/despread_block.h"
#include "watermark/gold_code.h"
#include "watermark/scan_batch.h"

namespace lexfor::watermark {
namespace {

void expect_same(const ScanResult& got, const ScanResult& want) {
  EXPECT_EQ(got.offset, want.offset);
  EXPECT_EQ(got.best.detected, want.best.detected);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best.correlation),
            std::bit_cast<std::uint64_t>(want.best.correlation))
      << "correlation " << got.best.correlation << " vs "
      << want.best.correlation;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best.threshold),
            std::bit_cast<std::uint64_t>(want.best.threshold));
}

// `kernel` against the naive reference: alone through kernel.scan, and
// in a family of two through ScanBatch, its partner the code reversed;
// the partner's slot is held to the reference too.
void expect_scan_matches(const CorrelationKernel& kernel,
                         const std::vector<double>& rates,
                         std::size_t max_offset) {
  const auto want = oracles::naive_scan(kernel.code(), rates, max_offset);
  ASSERT_TRUE(want.ok());
  const auto alone = kernel.scan(rates, max_offset);
  ASSERT_TRUE(alone.ok());
  expect_same(alone.value(), want.value());

  std::vector<std::int8_t> reversed(kernel.code().chips().rbegin(),
                                    kernel.code().chips().rend());
  const CorrelationKernel partner(PnCode::from_chips(reversed).value());
  const std::vector<ScanJob> jobs{ScanJob{&kernel, rates, max_offset},
                                  ScanJob{&partner, rates, max_offset}};
  const auto got = ScanBatch(ScanBatchOptions{1}).run(jobs);
  ASSERT_TRUE(got[0].ok());
  ASSERT_TRUE(got[1].ok());
  expect_same(got[0].value(), want.value());
  expect_same(got[1].value(),
              oracles::naive_scan(partner.code(), rates, max_offset).value());
}

// Poisson counts around 48 per chip, with `code` raising and lowering
// the mean by 35% from bin `plant` on, as a tap bins a marked flow.
std::vector<double> poisson_series(const PnCode& code, std::size_t plant,
                                   std::size_t length, Rng& rng) {
  std::vector<double> rates(length);
  for (std::size_t i = 0; i < length; ++i) {
    double mean = 48.0;
    if (i >= plant && i - plant < code.length()) {
      mean *= 1.0 + 0.35 * code.chips()[i - plant];
    }
    rates[i] = static_cast<double>(rng.poisson(mean));
  }
  return rates;
}

std::vector<CorrelationKernel> gold_kernels(int degree) {
  const auto family = GoldCodeFamily::create(degree).value();
  std::vector<CorrelationKernel> kernels;
  kernels.reserve(family.size());
  for (std::size_t a = 0; a < family.size(); ++a) {
    kernels.emplace_back(family.code(a));
  }
  return kernels;
}

// Every job of a family scan of `rates` against the reference for its
// own code, at 1, 2, 4 and 8 threads.
void expect_family_matches(const std::vector<CorrelationKernel>& kernels,
                           std::size_t first, std::size_t size,
                           const std::vector<double>& rates,
                           std::size_t max_offset) {
  std::vector<ScanJob> jobs(size);
  std::vector<ScanResult> want;
  for (std::size_t a = 0; a < size; ++a) {
    jobs[a] = ScanJob{&kernels[first + a], rates, max_offset};
    want.push_back(
        oracles::naive_scan(kernels[first + a].code(), rates, max_offset)
            .value());
  }
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto got = ScanBatch(ScanBatchOptions{threads}).run(jobs);
    ASSERT_EQ(got.size(), size);
    for (std::size_t a = 0; a < size; ++a) {
      SCOPED_TRACE(testing::Message() << "threads " << threads << " job " << a);
      ASSERT_TRUE(got[a].ok());
      expect_same(got[a].value(), want[a]);
    }
  }
}

TEST(RankedScanTest, PoissonCountsWithAPlantedCodeMatchTheReference) {
  // Degrees 3-12 (code lengths 2^d - 1, all odd, so every scan takes the
  // padded chip pair), over one block of offsets, two blocks and an
  // overlapped last one, and sixteen blocks; the code planted at offset
  // 0, at the block edge (past the last offset of a one-block scan), and
  // at the last offset.
  Rng rng{2801};
  for (int degree = 3; degree <= 12; ++degree) {
    const auto code = PnCode::m_sequence(degree).value();
    const CorrelationKernel kernel(code);
    for (const std::size_t max_offset : {15u, 40u, 255u}) {
      for (const std::size_t plant :
           {std::size_t{0}, std::size_t{16}, max_offset}) {
        SCOPED_TRACE(testing::Message() << "degree " << degree
                                        << " max_offset " << max_offset
                                        << " plant " << plant);
        const auto rates =
            poisson_series(code, plant, code.length() + max_offset, rng);
        ASSERT_TRUE(detail::whole_counts(rates.data(), rates.size(),
                                         code.length()));
        expect_scan_matches(kernel, rates, max_offset);
        if (degree >= 8 && plant <= max_offset) {
          EXPECT_EQ(oracles::naive_scan(code, rates, max_offset).value().offset,
                    plant);
        }
      }
    }
  }
}

TEST(RankedScanTest, CodesOfEveryLengthClassMatchTheReference) {
  // from_chips codes: one chip, so every window is flat; even lengths,
  // which take no padded pair; and codes past one 2,048-chip segment,
  // ending on an odd segment (2,049) or on a whole one (4,096).
  Rng rng{2802};
  for (const std::size_t n : {1u, 2u, 16u, 64u, 300u, 2049u, 4096u}) {
    std::vector<std::int8_t> chips(n);
    for (auto& c : chips) c = rng.bernoulli(0.5) ? 1 : -1;
    const auto code = PnCode::from_chips(chips).value();
    const CorrelationKernel kernel(code);
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE(testing::Message() << "n " << n << " trial " << trial);
      expect_scan_matches(kernel, poisson_series(code, 9, n + 50, rng), 50);
    }
  }
}

TEST(RankedScanTest, SmallCountsFullOfNearTiesMatchTheReference) {
  // Counts 0-3 under short codes give many windows whose scores tie or
  // differ only in the last bits, where the rank score alone can order
  // two offsets wrongly: only the error bound keeps the true best among
  // the despread contenders.
  Rng rng{2803};
  for (int degree = 3; degree <= 6; ++degree) {
    const auto code = PnCode::m_sequence(degree).value();
    const CorrelationKernel kernel(code);
    for (int trial = 0; trial < 3000; ++trial) {
      const std::size_t max_offset = 15 + rng.uniform(50);
      std::vector<double> rates(code.length() + max_offset);
      for (double& r : rates) r = static_cast<double>(rng.uniform(4));
      SCOPED_TRACE(testing::Message() << "degree " << degree << " trial "
                                      << trial);
      expect_scan_matches(kernel, rates, max_offset);
      if (HasFailure()) return;
    }
  }
}

TEST(RankedScanTest, EqualWindowsKeepTheEarliestOffset) {
  // A period-7 series repeats each window every 7 offsets, so each code's
  // best is tied at offsets o, o + 7, o + 14, ... and the earliest must
  // win.  Over 41 offsets a code holds 5 or 6 tied contenders; over 256
  // it holds 36 or 37, more than a block, and rescans on the exact path.
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  Rng rng{2804};
  std::vector<double> period(7);
  for (double& p : period) p = static_cast<double>(rng.poisson(20.0));
  for (const std::size_t max_offset : {40u, 255u}) {
    std::vector<double> rates(code.length() + max_offset);
    for (std::size_t i = 0; i < rates.size(); ++i) rates[i] = period[i % 7];
    SCOPED_TRACE(testing::Message() << "max_offset " << max_offset);
    expect_scan_matches(kernel, rates, max_offset);
    EXPECT_LT(oracles::naive_scan(code, rates, max_offset).value().offset, 7u);
  }
}

TEST(RankedScanTest, FlatSeriesScoresZeroAtTheFirstOffset) {
  const auto code = PnCode::m_sequence(6).value();
  const CorrelationKernel kernel(code);
  const std::vector<double> flat(code.length() + 40, 42.0);
  expect_scan_matches(kernel, flat, 40);
  const ScanResult want = oracles::naive_scan(code, flat, 40).value();
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.best.correlation),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(want.offset, 0u);
}

TEST(RankedScanTest, InputsTheIntegerLanesCannotHoldTakeTheExactPath) {
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  const std::size_t n = code.length();
  Rng rng{2805};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Each value, planted in the middle of Poisson counts, decides whether
  // the scan may rank; the scan matches the reference either way.
  struct Case {
    double value;
    bool rankable;
  };
  for (const Case& c : {Case{32767.0, true}, Case{-32767.0, true},
                        Case{-0.0, true}, Case{0.5, false},
                        Case{32768.0, false}, Case{-32768.0, false},
                        Case{nan, false}, Case{inf, false},
                        Case{-inf, false}}) {
    SCOPED_TRACE(testing::Message() << "value " << c.value);
    auto rates = poisson_series(code, 3, n + 40, rng);
    rates[n + 7] = c.value;
    EXPECT_EQ(detail::whole_counts(rates.data(), rates.size(), n),
              c.rankable);
    expect_scan_matches(kernel, rates, 40);
  }
}

TEST(RankedScanTest, LongCodesAtTheInt32LimitMatchTheReference) {
  // With every rate at 32767, n = 65538 keeps n·max|x| below 2^31 and
  // ranks, with correlations within 2^17 of the int32 limit; n = 65539
  // reaches 2^31 and takes the exact path.  All chips are +1 but the
  // first, so every window's correlation is near n·32767, and the one
  // window that starts on the 0 scores highest.
  for (const std::size_t n : {65538u, 65539u}) {
    std::vector<std::int8_t> chips(n, 1);
    chips[0] = -1;
    const CorrelationKernel kernel(PnCode::from_chips(chips).value());
    std::vector<double> rates(n + 20, 32767.0);
    rates[9] = 0.0;
    SCOPED_TRACE(testing::Message() << "n " << n);
    EXPECT_EQ(detail::whole_counts(rates.data(), rates.size(), n),
              n == 65538u);
    expect_scan_matches(kernel, rates, 20);
    EXPECT_EQ(oracles::naive_scan(kernel.code(), rates, 20).value().offset,
              9u);
  }
}

TEST(RankedScanTest, EveryIntegerLaneGivesTheExactCorrelations) {
  // Each lane this build and host run, against an int64 sum: odd and
  // even lengths, rates at both ends of the int16 range, and code runs
  // on either side of each lane's codes per pass.
  std::vector<std::pair<std::string, detail::RankLanes>> lanes{
      {"baseline", detail::baseline_rank_lanes()}};
  if (detail::avx2_rank_lanes().correlate != nullptr) {
    lanes.emplace_back("avx2", detail::avx2_rank_lanes());
  }
  EXPECT_EQ(detail::avx2_rank_lanes().correlate != nullptr,
            CorrelationKernel::simd_lane_available());
  constexpr std::size_t B = detail::kRankBlock;
  Rng rng{2806};
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 31u, 64u, 127u, 2049u}) {
    for (const std::size_t count : {1u, 2u, 3u, 4u, 5u, 9u}) {
      std::vector<std::int16_t> x(B + n);
      for (auto& v : x) {
        const std::uint64_t pick = rng.uniform(4);
        v = pick == 0   ? 32767
            : pick == 1 ? -32767
                        : static_cast<std::int16_t>(
                              static_cast<std::int64_t>(rng.uniform(65535)) -
                              32767);
      }
      std::vector<std::vector<std::int16_t>> chips(count);
      std::vector<const std::int16_t*> chip_ptrs;
      for (auto& c : chips) {
        c.resize(n + 1, 0);
        for (std::size_t i = 0; i < n; ++i) c[i] = rng.bernoulli(0.5) ? 1 : -1;
        chip_ptrs.push_back(c.data());
      }
      // The lane reads x[B - 1 + n] only against chip n's 0.
      if (n % 2 == 1) x[B - 1 + n] = 32767;
      for (const auto& [name, lane] : lanes) {
        ASSERT_NE(lane.correlate, nullptr) << name;
        std::vector<std::int32_t> got(count * B, 5);
        lane.correlate(x.data(), chip_ptrs.data(), count, n, got.data());
        for (std::size_t j = 0; j < count; ++j) {
          for (std::size_t k = 0; k < B; ++k) {
            std::int64_t want = 5;
            for (std::size_t i = 0; i < n; ++i) want += x[k + i] * chips[j][i];
            ASSERT_EQ(got[j * B + k], want)
                << name << " n " << n << " count " << count << " code " << j
                << " offset " << k;
          }
        }
      }
    }
  }
}

TEST(RankedScanTest, EveryStatisticsLaneMatchesTheScalarLoops) {
  // Each lane's mean and den must be the bits of the scalar despread's:
  // the window sum in index order, sum / n, then Σ d·d in index order.
  std::vector<std::pair<std::string, detail::RankLanes>> lanes{
      {"baseline", detail::baseline_rank_lanes()}};
  if (detail::avx2_rank_lanes().stats != nullptr) {
    lanes.emplace_back("avx2", detail::avx2_rank_lanes());
  }
  constexpr std::size_t B = detail::kRankBlock;
  Rng rng{2807};
  for (const std::size_t n : {1u, 7u, 31u, 511u}) {
    std::vector<double> x(B + n);
    for (double& v : x) v = rng.normal(50.0, 20.0);
    for (const auto& [name, lane] : lanes) {
      double mean[B];
      double den[B];
      lane.stats(x.data(), n, mean, den);
      for (std::size_t k = 0; k < B; ++k) {
        double sum = 0.0;
        for (std::size_t i = 0; i < n; ++i) sum += x[k + i];
        const double m = sum / static_cast<double>(n);
        double dd = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          const double d = x[k + i] - m;
          dd += d * d;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(mean[k]),
                  std::bit_cast<std::uint64_t>(m))
            << name << " n " << n << " offset " << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(den[k]),
                  std::bit_cast<std::uint64_t>(dd))
            << name << " n " << n << " offset " << k;
      }
    }
  }
}

TEST(ScanBatchTest, RankedPoissonFamiliesMatchTheReferenceAtEveryThreadCount) {
  // Families of 1, 3, 4, 5 and 129 degree-7 Gold codes over 251 offsets
  // (fifteen blocks and an overlapped last one), and the whole degree-9
  // family's first 129 codes over 256, the multiflow scan's shape, each
  // with a code planted at the last offset.
  Rng rng{2808};
  const auto kernels7 = gold_kernels(7);
  const auto rates7 =
      poisson_series(kernels7[100].code(), 250, 127 + 250, rng);
  for (const std::size_t size : {1u, 3u, 4u, 5u, 129u}) {
    SCOPED_TRACE(testing::Message() << "family of " << size);
    expect_family_matches(kernels7, 129 - size, size, rates7, 250);
  }
  const auto kernels9 = gold_kernels(9);
  const auto rates9 = poisson_series(kernels9[77].code(), 255, 511 + 255, rng);
  expect_family_matches(kernels9, 0, 129, rates9, 255);
}

TEST(ScanBatchTest, RankedSmallCountsAcrossAGoldFamilyMatchTheReference) {
  // Near-ties across all 33 codes of the degree-5 family at once.
  Rng rng{2809};
  const auto kernels = gold_kernels(5);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t max_offset = 15 + rng.uniform(40);
    std::vector<double> rates(31 + max_offset);
    for (double& r : rates) r = static_cast<double>(rng.uniform(4));
    SCOPED_TRACE(testing::Message() << "trial " << trial);
    expect_family_matches(kernels, 0, kernels.size(), rates, max_offset);
    if (HasFailure()) return;
  }
}

TEST(ScanBatchTest, RankedFlatWindowsWinWhereEveryOtherScoreIsNegative) {
  // Flat but for a bump in the last bin or the one before: the windows
  // that miss it are flat and score 0.0, the one or two that hold it
  // score by the sign of the chip it meets.  A code whose chips there are
  // -1 scores below 0 at every other offset, so its best is the first
  // flat window.
  const auto kernels = gold_kernels(5);
  for (const std::size_t bump : {70u, 69u}) {
    std::vector<double> rates(31 + 40, 5.0);
    rates[bump] = 9.0;
    SCOPED_TRACE(testing::Message() << "bump at " << bump);
    expect_family_matches(kernels, 0, kernels.size(), rates, 40);
  }
}

}  // namespace
}  // namespace lexfor::watermark
