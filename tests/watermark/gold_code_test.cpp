#include "watermark/gold_code.h"

#include <gtest/gtest.h>

#include <cmath>

#include "oracles/code_properties.h"
#include "watermark/correlate.h"

namespace lexfor::watermark {
namespace {

TEST(GoldCodeTest, RejectsUnsupportedDegrees) {
  EXPECT_FALSE(GoldCodeFamily::create(4).ok());
  EXPECT_FALSE(GoldCodeFamily::create(8).ok());  // no preferred pair
  EXPECT_TRUE(GoldCodeFamily::create(9).ok());
}

class GoldFamilyTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldFamilyTest, FamilySizeIsTwoToTheNPlusOne) {
  const auto family = GoldCodeFamily::create(GetParam()).value();
  EXPECT_EQ(family.size(), (std::size_t{1} << GetParam()) + 1);
  EXPECT_EQ(family.code_length(), (std::size_t{1} << GetParam()) - 1);
}

TEST_P(GoldFamilyTest, AllCodesAreValidPnCodes) {
  const auto family = GoldCodeFamily::create(GetParam()).value();
  for (std::size_t i = 0; i < family.size(); i += family.size() / 8 + 1) {
    const auto& code = family.code(i);
    EXPECT_EQ(code.length(), family.code_length());
    for (const auto c : code.chips()) EXPECT_TRUE(c == 1 || c == -1);
  }
}

TEST_P(GoldFamilyTest, CrossCorrelationIsWithinGoldBound) {
  const auto family = GoldCodeFamily::create(GetParam()).value();
  const double bound = oracles::gold_cross_correlation_bound(family);
  // Spot-check pairs across the family (full O(n^2) is too slow at 1023+).
  const std::size_t stride = family.size() / 12 + 1;
  for (std::size_t i = 0; i < family.size(); i += stride) {
    for (std::size_t j = i + 1; j < family.size(); j += stride) {
      const double xc =
          std::abs(oracles::cross_correlation(family.code(i), family.code(j)));
      EXPECT_LE(xc, bound + 1e-9)
          << "degree " << GetParam() << " codes " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, GoldFamilyTest,
                         ::testing::Values(5, 6, 7, 9, 10));

TEST(GoldCodeTest, BoundIsMuchSmallerThanOne) {
  const auto family = GoldCodeFamily::create(9).value();
  EXPECT_LT(oracles::gold_cross_correlation_bound(family), 0.07);  // 33/511
}

TEST(GoldCodeTest, CodesAreDistinct) {
  const auto family = GoldCodeFamily::create(5).value();
  for (std::size_t i = 0; i < family.size(); ++i) {
    for (std::size_t j = i + 1; j < family.size(); ++j) {
      EXPECT_NE(family.code(i).chips(), family.code(j).chips())
          << i << "," << j;
    }
  }
}

TEST(GoldCodeTest, MarkUnderOneCodeDoesNotDespreadUnderAnother) {
  const auto family = GoldCodeFamily::create(9).value();
  std::vector<double> rates;
  for (const auto c : family.code(3).chips()) {
    rates.push_back(100.0 * (1.0 + 0.3 * c));
  }
  const CorrelationKernel right(family.code(3));
  const CorrelationKernel wrong(family.code(17));
  EXPECT_TRUE(right.scan(rates, 0).value().best.detected);
  EXPECT_FALSE(wrong.scan(rates, 0).value().best.detected);
}

}  // namespace
}  // namespace lexfor::watermark
