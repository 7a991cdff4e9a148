// CorrelationKernel bit-identity: the allocation-free, offset-blocked
// scan must produce the EXACT bits the naive oracle scan
// (tests/oracles/naive_scan.h) produces — correlation, threshold,
// offset and decision — on randomized series, every block lane and the
// tail, flat series, ties, copied kernels, error paths, and the
// max_offset clamp edge.  Both blocked-despread instantiations are also
// checked lane by lane against the single-window despread.

#include "watermark/correlate.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "oracles/naive_scan.h"
#include "oracles/pearson.h"
#include "util/rng.h"
#include "watermark/despread_block.h"

namespace lexfor::watermark {
namespace {

void expect_bit_identical(const ScanResult& kernel, const ScanResult& ref) {
  EXPECT_EQ(kernel.offset, ref.offset);
  EXPECT_EQ(kernel.best.detected, ref.best.detected);
  // EXPECT_DOUBLE_EQ tolerates 4 ULPs; the contract is 0.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel.best.correlation),
            std::bit_cast<std::uint64_t>(ref.best.correlation))
      << "correlation " << kernel.best.correlation << " vs "
      << ref.best.correlation;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel.best.threshold),
            std::bit_cast<std::uint64_t>(ref.best.threshold))
      << "threshold " << kernel.best.threshold << " vs "
      << ref.best.threshold;
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

TEST(CorrelationKernelTest, RandomizedScanMatchesReferenceBitForBit) {
  Rng rng{2026};
  for (int trial = 0; trial < 60; ++trial) {
    const int degree = 5 + static_cast<int>(rng.uniform(5));  // 5..9
    const auto code = PnCode::m_sequence(degree).value();
    const std::size_t offset = rng.uniform(40);
    const std::size_t tail = rng.uniform(30);
    const bool marked = rng.bernoulli(0.5);
    const double sigma = 1.0 + 30.0 * rng.uniform01();
    const auto rates =
        random_series(code, offset, tail, marked, 0.3, sigma, rng);
    const std::size_t max_offset = rng.uniform(80);

    const CorrelationKernel kernel(code);
    const auto kernel_r = kernel.scan(rates, max_offset);
    const auto ref_r = oracles::naive_scan(code, rates, max_offset);
    ASSERT_TRUE(kernel_r.ok());
    ASSERT_TRUE(ref_r.ok());
    expect_bit_identical(kernel_r.value(), ref_r.value());
  }
}

TEST(CorrelationKernelTest, FlatSeriesMatchesReference) {
  const auto code = PnCode::m_sequence(7).value();
  const CorrelationKernel kernel(code);
  const std::vector<double> flat(code.length() + 50, 42.0);
  const auto kernel_r = kernel.scan(flat, 20).value();
  const auto ref_r = oracles::naive_scan(code, flat, 20).value();
  expect_bit_identical(kernel_r, ref_r);
  EXPECT_DOUBLE_EQ(kernel_r.best.correlation, 0.0);
  EXPECT_FALSE(kernel_r.best.detected);
  EXPECT_EQ(kernel_r.offset, 0u);  // ties keep the earliest offset
}

// scan() scores full blocks of offsets, one offset per vector lane (8
// offsets a block at the baseline ISA, 16 with AVX2), and the offsets
// after the last full block one window at a time.  Planting the mark at
// each offset in turn puts the winner in every lane of both block
// widths and in the tail, so every lane's score is compared bit for bit.
TEST(CorrelationKernelTest, EveryBlockLaneAndTheTailMatchReferenceBitForBit) {
  constexpr std::size_t kMaxOffset = 33;
  Rng rng{2027};
  for (const int degree : {3, 5, 9, 12}) {
    const auto code = PnCode::m_sequence(degree).value();
    const CorrelationKernel kernel(code);
    for (std::size_t plant = 0; plant <= kMaxOffset; ++plant) {
      const auto rates = random_series(code, plant, kMaxOffset - plant, true,
                                       0.3, 2.0, rng);
      for (std::size_t max_offset = 0; max_offset <= kMaxOffset;
           ++max_offset) {
        SCOPED_TRACE(testing::Message() << "degree " << degree << " plant "
                                        << plant << " max_offset "
                                        << max_offset);
        const auto kernel_r = kernel.scan(rates, max_offset).value();
        const auto ref_r =
            oracles::naive_scan(code, rates, max_offset).value();
        expect_bit_identical(kernel_r, ref_r);
        if (plant <= max_offset) {
          EXPECT_EQ(kernel_r.offset, plant);
        }
      }
    }
  }
}

TEST(CorrelationKernelTest, FlatSeriesAcrossBlocksScoresZeroAtEveryOffset) {
  // 61 offsets: several full blocks of either width plus a tail.  A flat
  // window is a semantic boundary, not a rounding one: every offset
  // scores exactly +0.0, so the earliest offset wins, as in the
  // reference.
  const auto code = PnCode::m_sequence(5).value();
  const CorrelationKernel kernel(code);
  const std::size_t max_offset = 60;
  const std::vector<double> flat(code.length() + max_offset, 42.0);
  for (std::size_t off = 0; off <= max_offset; ++off) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  kernel.despread(flat.data() + off, 0, code.length())),
              std::bit_cast<std::uint64_t>(0.0))
        << "offset " << off;
  }
  const auto kernel_r = kernel.scan(flat, max_offset).value();
  const auto ref_r = oracles::naive_scan(code, flat, max_offset).value();
  expect_bit_identical(kernel_r, ref_r);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel_r.best.correlation),
            std::bit_cast<std::uint64_t>(0.0));
  EXPECT_EQ(kernel_r.offset, 0u);
  EXPECT_FALSE(kernel_r.best.detected);
}

TEST(CorrelationKernelTest, EqualMaximaInOneBlockKeepTheEarliestOffset) {
  // A period-3 code, and a series that repeats it exactly over bins
  // [9, 45): the windows at offsets 9 and 12 are the same bins, so they
  // score the same bits — the highest any window can score.  Offsets
  // 0..15 are one AVX2 block, and 9 and 12 share the baseline block
  // [8, 16), so the tie is broken inside a block.
  std::vector<std::int8_t> chips;
  for (int i = 0; i < 11; ++i) chips.insert(chips.end(), {1, 1, -1});
  const auto code = PnCode::from_chips(chips).value();
  const CorrelationKernel kernel(code);
  Rng rng{2029};
  std::vector<double> rates;
  for (int i = 0; i < 9; ++i) rates.push_back(100.0 + rng.normal(0.0, 5.0));
  for (std::size_t i = 0; i < code.length() + 3; ++i) {
    rates.push_back(100.0 + 30.0 * chips[i % 3]);
  }
  for (int i = 0; i < 12; ++i) rates.push_back(100.0 + rng.normal(0.0, 5.0));

  const std::size_t n = code.length();
  ASSERT_EQ(std::bit_cast<std::uint64_t>(
                kernel.despread(rates.data() + 9, 0, n)),
            std::bit_cast<std::uint64_t>(
                kernel.despread(rates.data() + 12, 0, n)));
  const auto kernel_r = kernel.scan(rates, 15).value();
  const auto ref_r = oracles::naive_scan(code, rates, 15).value();
  expect_bit_identical(kernel_r, ref_r);
  EXPECT_EQ(kernel_r.offset, 9u);
}

TEST(CorrelationKernelTest, CopiedAndAssignedKernelsMatchReference) {
  Rng rng{2030};
  const auto code = PnCode::m_sequence(9).value();
  const CorrelationKernel original(code);
  const CorrelationKernel copy(original);
  CorrelationKernel assigned(PnCode::m_sequence(5).value());
  assigned = original;
  const auto rates = random_series(code, 13, 40, true, 0.1, 10.0, rng);
  const auto ref_r = oracles::naive_scan(code, rates, 32).value();
  expect_bit_identical(original.scan(rates, 32).value(), ref_r);
  expect_bit_identical(copy.scan(rates, 32).value(), ref_r);
  expect_bit_identical(assigned.scan(rates, 32).value(), ref_r);
  EXPECT_EQ(ref_r.offset, 13u);
}

TEST(CorrelationKernelTest, WideOffsetWindowsMatchReferenceAcrossDegrees) {
  // The benchmark's shape: code lengths 255, 1023 and 4095, and 257
  // offsets — sixteen AVX2 blocks (thirty-two baseline blocks) plus a
  // one-offset tail — next to the aligned-only scan.
  Rng rng{20260809};
  for (const int degree : {8, 10, 12}) {
    const auto code = PnCode::m_sequence(degree).value();
    const CorrelationKernel kernel(code);
    for (const std::size_t max_offset : {std::size_t{0}, std::size_t{256}}) {
      for (int trial = 0; trial < 5; ++trial) {
        const std::size_t plant = rng.uniform(max_offset + 1);
        const std::size_t tail = max_offset - plant + rng.uniform(8);
        const bool marked = rng.bernoulli(0.5);
        const double sigma = 1.0 + 30.0 * rng.uniform01();
        const auto rates =
            random_series(code, plant, tail, marked, 0.3, sigma, rng);
        SCOPED_TRACE(testing::Message()
                     << "degree " << degree << " max_offset " << max_offset
                     << " trial " << trial);
        const auto kernel_r = kernel.scan(rates, max_offset).value();
        const auto ref_r =
            oracles::naive_scan(code, rates, max_offset).value();
        expect_bit_identical(kernel_r, ref_r);
      }
    }
  }
}

TEST(CorrelationKernelTest, BothBlockWidthsMatchSingleWindowDespreadPerLane) {
  // scan() runs one of the two blocked-despread instantiations on a
  // given host, so each is also called directly here: every lane must
  // hold the exact bits of despread() on its own window, for a noisy
  // series and for a flat one (the den <= 0 guard).  The AVX2 one-code
  // block is reached as scan() reaches it: the family scorer at count 1.
  const detail::FamilyScorer avx2 = detail::avx2_family_scorer();
  EXPECT_EQ(avx2 != nullptr, CorrelationKernel::simd_lane_available());
  constexpr std::size_t kBaselineLanes = 2 * 4;
  Rng rng{2031};
  for (const int degree : {3, 6, 11}) {
    const auto code = PnCode::m_sequence(degree).value();
    const CorrelationKernel kernel(code);
    const std::size_t n = code.length();
    const std::vector<double> chips(code.chips().begin(), code.chips().end());
    const auto noisy = random_series(code, 5, detail::kAvx2BlockOffsets, true,
                                     0.3, 10.0, rng);
    const std::vector<double> flat(noisy.size(), 42.0);
    for (const auto* series : {&noisy, &flat}) {
      for (std::size_t start = 0; start < 5; ++start) {
        SCOPED_TRACE(testing::Message()
                     << "degree " << degree << " start " << start
                     << (series == &flat ? " flat" : " noisy"));
        const double* x = series->data() + start;
        double baseline[kBaselineLanes];
        detail::despread_block<2, 4>(x, chips.data(), n, baseline);
        for (std::size_t k = 0; k < kBaselineLanes; ++k) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(baseline[k]),
                    std::bit_cast<std::uint64_t>(kernel.despread(x + k, 0, n)))
              << "baseline lane " << k;
        }
        if (avx2 == nullptr) continue;
        double wide[detail::kAvx2BlockOffsets];
        const double* one_code = chips.data();
        avx2(x, &one_code, 1, n, wide);
        for (std::size_t k = 0; k < detail::kAvx2BlockOffsets; ++k) {
          EXPECT_EQ(std::bit_cast<std::uint64_t>(wide[k]),
                    std::bit_cast<std::uint64_t>(kernel.despread(x + k, 0, n)))
              << "AVX2 lane " << k;
        }
      }
    }
  }
}

TEST(CorrelationKernelTest, ShortSeriesErrorsMatchReference) {
  const auto code = PnCode::m_sequence(9).value();
  const CorrelationKernel kernel(code);
  const std::vector<double> short_series(code.length() - 1, 1.0);
  const auto kernel_r = kernel.scan(short_series, 10);
  const auto ref_r = oracles::naive_scan(code, short_series, 10);
  EXPECT_FALSE(kernel_r.ok());
  EXPECT_FALSE(ref_r.ok());
  EXPECT_EQ(kernel_r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(kernel_r.status().code(), ref_r.status().code());
}

TEST(CorrelationKernelTest, MaxOffsetClampEdgeMatchesReference) {
  Rng rng{31};
  const auto code = PnCode::m_sequence(7).value();
  const CorrelationKernel kernel(code);
  const auto rates = random_series(code, 13, 0, true, 0.3, 4.0, rng);
  // rates.size() - n == 13: every max_offset at or past the clamp edge
  // must scan exactly offsets [0, 13] — including the huge ask.
  for (const std::size_t max_offset : {std::size_t{13}, std::size_t{14},
                                       std::size_t{1} << 20}) {
    const auto kernel_r = kernel.scan(rates, max_offset).value();
    const auto ref_r =
        oracles::naive_scan(code, rates, max_offset).value();
    expect_bit_identical(kernel_r, ref_r);
    EXPECT_EQ(kernel_r.offset, 13u);
  }
}

TEST(CorrelationKernelTest, ExactSizeSeriesScansSingleOffset) {
  Rng rng{33};
  const auto code = PnCode::m_sequence(6).value();
  const CorrelationKernel kernel(code);
  const auto rates = random_series(code, 0, 0, true, 0.3, 2.0, rng);
  ASSERT_EQ(rates.size(), code.length());
  const auto kernel_r = kernel.scan(rates, 500).value();
  const auto ref_r = oracles::naive_scan(code, rates, 500).value();
  expect_bit_identical(kernel_r, ref_r);
  // k = 1: no Bonferroni inflation, so the scan threshold equals the
  // aligned detector's.
  const auto aligned = kernel.scan(rates, 0).value().best;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel_r.best.threshold),
            std::bit_cast<std::uint64_t>(aligned.threshold));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(kernel_r.best.correlation),
            std::bit_cast<std::uint64_t>(aligned.correlation));
}

TEST(CorrelationKernelTest, ScanThresholdAddsBonferroniInflation) {
  // k candidate offsets raise the plain sigmas/sqrt(n) threshold by
  // sqrt(2 ln k) sigma, n being the code length; k = 0 and k = 1 add
  // nothing.  scan() applies exactly that threshold for the offsets it
  // scores.
  const auto code = PnCode::m_sequence(7).value();
  const CorrelationKernel kernel(code, 4.0);
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  EXPECT_EQ(bits(kernel.scan_threshold(1)), bits(4.0 / std::sqrt(127.0)));
  EXPECT_EQ(bits(kernel.scan_threshold(0)), bits(kernel.scan_threshold(1)));
  // Past k = 1 the formula goes through log, which the compiler may
  // fold here with another rounding than the run-time libm's, so it is
  // compared to within 4 ULPs.
  for (const std::size_t k : {std::size_t{2}, std::size_t{16},
                              std::size_t{300}}) {
    const double inflation =
        std::sqrt(2.0 * std::log(static_cast<double>(k)));
    EXPECT_DOUBLE_EQ(kernel.scan_threshold(k),
                     (4.0 + inflation) / std::sqrt(127.0))
        << "k " << k;
    EXPECT_GT(kernel.scan_threshold(k), kernel.scan_threshold(k - 1));
  }

  Rng rng{41};
  const auto rates = random_series(code, 0, 40, true, 0.3, 4.0, rng);
  // 40 slack bins: a scan asking for 1000 offsets scores 41.
  EXPECT_EQ(bits(kernel.scan(rates, 1000).value().best.threshold),
            bits(kernel.scan_threshold(41)));
}

TEST(CorrelationKernelTest, AlignedDetectMatchesNaiveFormula) {
  Rng rng{35};
  const auto code = PnCode::m_sequence(9).value();
  const auto rates = random_series(code, 0, 10, true, 0.25, 8.0, rng);
  const CorrelationKernel kernel(code, 5.0);
  const auto r = kernel.scan(rates, 0).value().best;

  // Independent naive despread, the historic aligned detector loop.
  const std::size_t n = code.length();
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += rates[i];
  mean /= static_cast<double>(n);
  double num = 0.0, denom = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rates[i] - mean;
    num += x * static_cast<double>(code.chips()[i]);
    denom += x * x;
  }
  const double expected = num / std::sqrt(denom * static_cast<double>(n));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.correlation),
            std::bit_cast<std::uint64_t>(expected));
}

TEST(CorrelationKernelTest, SegmentDespreadMatchesNaiveSegmentLoop) {
  Rng rng{39};
  const auto code = PnCode::m_sequence(10).value();
  const std::size_t L = 63;
  std::vector<double> rates;
  for (std::size_t i = 0; i < 8 * L; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, 20.0));
  }
  const CorrelationKernel kernel(code);
  for (std::size_t b = 0; b < 8; ++b) {
    const std::size_t begin = b * L;
    double mean = 0.0;
    for (std::size_t j = 0; j < L; ++j) mean += rates[begin + j];
    mean /= static_cast<double>(L);
    double num = 0.0, denom = 0.0;
    for (std::size_t j = 0; j < L; ++j) {
      const double x = rates[begin + j] - mean;
      num += x * static_cast<double>(code.chips()[begin + j]);
      denom += x * x;
    }
    const double expected =
        denom > 0.0 ? num / std::sqrt(denom * static_cast<double>(L)) : 0.0;
    const double got = kernel.despread(rates.data() + begin, begin, L);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got),
              std::bit_cast<std::uint64_t>(expected))
        << "segment " << b;
  }
}

TEST(CorrelationKernelTest, CrossScoreMatchesPearsonBitForBit) {
  // cross_score is the kernel-side replacement for the hand-rolled
  // passive correlation in bench_baseline; the naive oracles::pearson
  // is the oracle it must match exactly.
  Rng rng{20260805};
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 2 + rng.uniform(200);
    std::vector<double> a(n), b(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.normal(100.0, 25.0);
      b[i] = 0.4 * a[i] + rng.normal(0.0, 10.0);
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  CorrelationKernel::cross_score(a, b)),
              std::bit_cast<std::uint64_t>(oracles::pearson(a, b)))
        << "trial " << trial << " n " << n;
  }
}

TEST(CorrelationKernelTest, CrossScoreDegenerateInputsAreZero) {
  const std::vector<double> flat(8, 3.0);
  const std::vector<double> ramp{1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0};
  const std::vector<double> one{1.0};
  const std::vector<double> shorter{1.0, 2.0};
  EXPECT_EQ(CorrelationKernel::cross_score(flat, ramp), 0.0);   // zero variance
  EXPECT_EQ(CorrelationKernel::cross_score(ramp, flat), 0.0);
  EXPECT_EQ(CorrelationKernel::cross_score(one, one), 0.0);     // n < 2
  EXPECT_EQ(CorrelationKernel::cross_score(ramp, shorter), 0.0);  // mismatch
  EXPECT_EQ(CorrelationKernel::cross_score({}, {}), 0.0);
}

}  // namespace
}  // namespace lexfor::watermark
