#include "util/stats.h"

#include <gtest/gtest.h>

#include "oracles/pearson.h"

namespace lexfor {
namespace {

using oracles::pearson;

TEST(PercentileTest, MedianOfOddSet) {
  EXPECT_DOUBLE_EQ(percentile({3, 1, 2}, 50), 2.0);
}

TEST(PercentileTest, Extremes) {
  const std::vector<double> xs{5, 1, 9, 3};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 9.0);
}

TEST(PercentileTest, InterpolatesBetweenRanks) {
  // Sorted: 10, 20. p50 -> 15.
  EXPECT_DOUBLE_EQ(percentile({20, 10}, 50), 15.0);
}

TEST(PercentileTest, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(PearsonTest, PerfectPositiveCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  EXPECT_NEAR(pearson(a, b), 1.0, 1e-12);
}

TEST(PearsonTest, PerfectNegativeCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{8, 6, 4, 2};
  EXPECT_NEAR(pearson(a, b), -1.0, 1e-12);
}

TEST(PearsonTest, DegenerateInputsYieldZero) {
  EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {2, 3, 4}), 0.0);  // zero variance
  EXPECT_DOUBLE_EQ(pearson({1, 2}, {1}), 0.0);           // length mismatch
  EXPECT_DOUBLE_EQ(pearson({1}, {1}), 0.0);              // too short
}

}  // namespace
}  // namespace lexfor
