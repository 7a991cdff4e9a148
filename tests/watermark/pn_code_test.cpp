#include "watermark/pn_code.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "oracles/code_properties.h"

namespace lexfor::watermark {
namespace {

TEST(PnCodeTest, RejectsBadDegrees) {
  EXPECT_FALSE(PnCode::m_sequence(2).ok());
  EXPECT_FALSE(PnCode::m_sequence(17).ok());
  EXPECT_TRUE(PnCode::m_sequence(3).ok());
  EXPECT_TRUE(PnCode::m_sequence(16).ok());
}

TEST(PnCodeTest, RejectsZeroSeed) {
  EXPECT_FALSE(PnCode::m_sequence(5, 0).ok());
  // Seed that is zero modulo 2^degree.
  EXPECT_FALSE(PnCode::m_sequence(5, 32).ok());
}

TEST(PnCodeTest, LengthIsTwoToTheNMinusOne) {
  for (int d = 3; d <= 12; ++d) {
    const auto code = PnCode::m_sequence(d).value();
    EXPECT_EQ(code.length(), (std::size_t{1} << d) - 1) << "degree " << d;
  }
}

TEST(PnCodeTest, ChipsAreAllPlusMinusOne) {
  const auto code = PnCode::m_sequence(9).value();
  for (const auto c : code.chips()) {
    EXPECT_TRUE(c == 1 || c == -1);
  }
}

class PnPropertyTest : public ::testing::TestWithParam<int> {};

// m-sequence balance property: |sum of chips| == 1 (one extra of one
// polarity in an odd-length maximal sequence).
TEST_P(PnPropertyTest, BalanceIsPlusMinusOne) {
  const auto code = PnCode::m_sequence(GetParam()).value();
  EXPECT_EQ(std::abs(oracles::balance(code)), 1) << "degree " << GetParam();
}

// Two-valued autocorrelation: 1 at zero shift, -1/N at all other shifts.
TEST_P(PnPropertyTest, AutocorrelationIsTwoValued) {
  const auto code = PnCode::m_sequence(GetParam()).value();
  const auto n = static_cast<double>(code.length());
  EXPECT_DOUBLE_EQ(oracles::autocorrelation(code, 0), 1.0);
  for (std::size_t shift = 1; shift < code.length(); shift += 7) {
    EXPECT_NEAR(oracles::autocorrelation(code, shift), -1.0 / n, 1e-12)
        << "degree " << GetParam() << " shift " << shift;
  }
}

// The LFSR state cycles through all 2^d - 1 nonzero states exactly once
// per period, so the sequence has full period (no shorter cycle).
TEST_P(PnPropertyTest, SequenceHasFullPeriod) {
  const auto code = PnCode::m_sequence(GetParam()).value();
  const auto& c = code.chips();
  // A sequence with period p < N would satisfy c[i] == c[i+p] for all i.
  for (std::size_t p = 1; p <= c.size() / 2; ++p) {
    if (c.size() % p != 0) continue;
    bool periodic = true;
    for (std::size_t i = 0; i + p < c.size() && periodic; ++i) {
      periodic = c[i] == c[i + p];
    }
    EXPECT_FALSE(periodic) << "degree " << GetParam() << " has period " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, PnPropertyTest,
                         ::testing::Values(3, 4, 5, 6, 7, 8, 9, 10, 11));

TEST(PnCodeTest, DifferentSeedsGivePhaseShiftedSequences) {
  const auto a = PnCode::m_sequence(7, 1).value();
  const auto b = PnCode::m_sequence(7, 5).value();
  EXPECT_NE(a.chips(), b.chips());
  // Same multiset of chips (same balance).
  EXPECT_EQ(oracles::balance(a), oracles::balance(b));
}

TEST(PnCodeTest, FromChipsValidates) {
  EXPECT_TRUE(PnCode::from_chips({1, -1, 1}).ok());
  EXPECT_FALSE(PnCode::from_chips({}).ok());
  EXPECT_FALSE(PnCode::from_chips({1, 0, -1}).ok());
  EXPECT_FALSE(PnCode::from_chips({2}).ok());
}

TEST(PnCodeTest, CrossCorrelationOfIdenticalCodesIsOne) {
  const auto a = PnCode::m_sequence(8).value();
  EXPECT_DOUBLE_EQ(oracles::cross_correlation(a, a), 1.0);
}

TEST(PnCodeTest, CrossCorrelationOfDistinctPhasesIsLow) {
  const auto a = PnCode::m_sequence(10, 1).value();
  const auto b = PnCode::m_sequence(10, 77).value();
  EXPECT_LT(std::abs(oracles::cross_correlation(a, b)), 0.1);
}

}  // namespace
}  // namespace lexfor::watermark
