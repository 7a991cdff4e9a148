#include "util/stats.h"

#include <gtest/gtest.h>

#include "oracles/pearson.h"

namespace lexfor {
namespace {

using oracles::pearson;

TEST(RunningStatsTest, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(RunningStatsTest, MinMaxTracked) {
  RunningStats s;
  s.add(3.0);
  s.add(-1.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

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
