#include "tornet/baseline.h"

#include <gtest/gtest.h>

namespace lexfor::tornet {
namespace {

PassiveConfig calm() {
  PassiveConfig cfg;
  cfg.window_sec = 0.5;
  cfg.observe_sec = 120.0;
  cfg.base_rate_pps = 120.0;
  cfg.num_decoys = 5;
  cfg.network.relay_jitter_ms = 20.0;
  cfg.seed = 3;
  return cfg;
}

TEST(PassiveTest, RejectsBadWindows) {
  auto cfg = calm();
  cfg.window_sec = 0.0;
  EXPECT_FALSE(run_passive_correlation(cfg).ok());
  cfg = calm();
  cfg.observe_sec = cfg.window_sec / 2;
  EXPECT_FALSE(run_passive_correlation(cfg).ok());
}

TEST(PassiveTest, SuspectCorrelatesAboveDecoysUnderLightJitter) {
  const auto r = run_passive_correlation(calm()).value();
  ASSERT_EQ(r.correlations.size(), 6u);
  EXPECT_TRUE(r.identified_correctly);
  EXPECT_GT(r.correlations[0], 0.3);
  EXPECT_GT(r.margin, 0.1);
}

TEST(PassiveTest, DecoyCorrelationsNearZero) {
  const auto r = run_passive_correlation(calm()).value();
  for (std::size_t i = 1; i < r.correlations.size(); ++i) {
    EXPECT_LT(std::abs(r.correlations[i]), 0.3) << "decoy " << i;
  }
}

TEST(PassiveTest, HeavyJitterErodesCorrelation) {
  auto heavy = calm();
  heavy.network.relay_jitter_ms = 600.0;  // >> window
  heavy.network.relay_batch_ms = 400.0;
  const auto r_calm = run_passive_correlation(calm()).value();
  const auto r_heavy = run_passive_correlation(heavy).value();
  EXPECT_LT(r_heavy.correlations[0], r_calm.correlations[0]);
}

TEST(PassiveTest, DeterministicForSeed) {
  const auto a = run_passive_correlation(calm()).value();
  const auto b = run_passive_correlation(calm()).value();
  EXPECT_EQ(a.correlations, b.correlations);
}

TEST(ComparisonTest, RejectsZeroTrials) {
  EXPECT_FALSE(run_baseline_comparison(TracebackConfig{}, 0).ok());
}

TEST(ComparisonTest, RejectsInvalidPnDegree) {
  // The code length comes from a validated code, so a degree outside
  // [3, 16] is an error, never a shift by it.
  for (const int degree : {-1, 2, 17, 64}) {
    TracebackConfig cfg;
    cfg.pn_degree = degree;
    const auto r = run_baseline_comparison(cfg, 1);
    ASSERT_FALSE(r.ok()) << degree;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << degree;
  }
}

TEST(ComparisonTest, BothTechniquesSucceedInCalmConditions) {
  TracebackConfig cfg;
  cfg.pn_degree = 8;
  cfg.chip_ms = 400.0;
  cfg.depth = 0.35;
  cfg.num_decoys = 4;
  cfg.network.relay_jitter_ms = 20.0;
  cfg.seed = 5;
  const auto r = run_baseline_comparison(cfg, 4).value();
  EXPECT_GE(r.watermark_success_rate, 0.75);
  EXPECT_GE(r.passive_success_rate, 0.75);
  EXPECT_NEAR(r.observation_sec, 255 * 0.4, 1e-9);
}

TEST(ComparisonTest, WatermarkBeatsPassiveUnderHeavyMixing) {
  // The paper's claim: the active method is "more effective than other
  // methods".  Under batching/jitter comparable to the sampling window,
  // natural-fluctuation correlation collapses while the designed mark
  // survives.
  TracebackConfig cfg;
  cfg.pn_degree = 9;
  cfg.chip_ms = 400.0;
  cfg.depth = 0.35;
  cfg.num_decoys = 6;
  cfg.network.relay_jitter_ms = 500.0;
  cfg.network.relay_batch_ms = 300.0;
  cfg.seed = 9;
  const auto r = run_baseline_comparison(cfg, 5).value();
  EXPECT_GT(r.watermark_success_rate, r.passive_success_rate);
  EXPECT_GE(r.watermark_success_rate, 0.8);
}

}  // namespace
}  // namespace lexfor::tornet
