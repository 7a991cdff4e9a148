// Multi-flow (Gold-code) traceback: many accounts marked concurrently,
// one observed client identified by which code despreads.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "tornet/traceback.h"
#include "watermark/dsss.h"
#include "watermark/gold_code.h"

namespace lexfor::tornet {
namespace {

MultiflowConfig easy() {
  MultiflowConfig cfg;
  cfg.gold_degree = 9;
  cfg.num_accounts = 8;
  cfg.true_account = 3;
  cfg.chip_ms = 400.0;
  cfg.depth = 0.35;
  cfg.base_rate_pps = 120.0;
  cfg.seed = 11;
  return cfg;
}

TEST(MultiflowTest, IdentifiesTheTrueAccount) {
  const auto r = run_multiflow_traceback(easy()).value();
  EXPECT_TRUE(r.correct) << "identified " << r.identified_account;
  EXPECT_TRUE(r.above_threshold);
  EXPECT_GT(r.margin, 0.2);
}

TEST(MultiflowTest, AllAccountCorrelationsReported) {
  const auto r = run_multiflow_traceback(easy()).value();
  ASSERT_EQ(r.correlations.size(), 8u);
  // The winner dominates every other account's despread.
  for (std::size_t a = 0; a < r.correlations.size(); ++a) {
    if (a == r.identified_account) continue;
    EXPECT_LT(r.correlations[a], r.correlations[r.identified_account]);
  }
}

TEST(MultiflowTest, WorksForEveryTrueAccount) {
  for (std::size_t target = 0; target < 8; ++target) {
    auto cfg = easy();
    cfg.true_account = target;
    cfg.seed = 100 + target;
    const auto r = run_multiflow_traceback(cfg).value();
    EXPECT_TRUE(r.correct) << "target " << target << " identified as "
                           << r.identified_account;
  }
}

TEST(MultiflowTest, RejectsOutOfRangeTarget) {
  auto cfg = easy();
  cfg.true_account = 99;
  EXPECT_FALSE(run_multiflow_traceback(cfg).ok());
}

TEST(MultiflowTest, RejectsUnsupportedGoldDegree) {
  auto cfg = easy();
  cfg.gold_degree = 8;  // no preferred pair
  EXPECT_FALSE(run_multiflow_traceback(cfg).ok());
}

TEST(MultiflowTest, RejectsChipShorterThanOneMicrosecond) {
  for (const double chip_ms : {0.0, 0.0009, -400.0}) {
    auto cfg = easy();
    cfg.chip_ms = chip_ms;
    const auto r = run_multiflow_traceback(cfg);
    ASSERT_FALSE(r.ok()) << chip_ms;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << chip_ms;
  }
  auto cfg = easy();
  cfg.gold_degree = 7;
  cfg.chip_ms = 0.001;
  EXPECT_TRUE(run_multiflow_traceback(cfg).ok());
}

TEST(MultiflowTest, RejectsNonFiniteChipRateOrDepth) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    for (int field = 0; field < 3; ++field) {
      auto cfg = easy();
      (field == 0 ? cfg.base_rate_pps : field == 1 ? cfg.depth : cfg.chip_ms) =
          bad;
      const auto r = run_multiflow_traceback(cfg);
      ASSERT_FALSE(r.ok()) << "field " << field << " = " << bad;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << "field " << field << " = " << bad;
    }
  }
}

TEST(MultiflowTest, ScalesToManyAccounts) {
  auto cfg = easy();
  cfg.num_accounts = 64;
  cfg.true_account = 41;
  cfg.seed = 21;
  const auto r = run_multiflow_traceback(cfg).value();
  EXPECT_TRUE(r.correct);
  EXPECT_TRUE(r.above_threshold);
}

TEST(MultiflowTest, DeterministicForSeed) {
  const auto a = run_multiflow_traceback(easy()).value();
  const auto b = run_multiflow_traceback(easy()).value();
  EXPECT_EQ(a.identified_account, b.identified_account);
  EXPECT_EQ(a.correlations, b.correlations);
}

TEST(MultiflowTest, CorrelationsMatchEachAccountKernelScanBitForBit) {
  // The observed client's series, spelled out through the public
  // composition (circuit, then generate_modulated_poisson -> transit ->
  // bin_arrivals on one Rng), and despread by each account's kernel at
  // offset 0: every correlation, the argmax, the verdict and the margin
  // must follow bit for bit.
  const MultiflowConfig cfg = easy();
  const auto family =
      watermark::GoldCodeFamily::create(cfg.gold_degree).value();
  const std::size_t n_chips = family.code_length();
  const double chip_sec = cfg.chip_ms * 1e-3;
  const double t_end = chip_sec * static_cast<double>(n_chips) + 2.0;
  const double shift =
      static_cast<double>(cfg.network.circuit_length) *
      (cfg.network.hop_latency_ms + cfg.network.relay_jitter_ms +
       cfg.network.relay_batch_ms / 2.0) *
      1e-3;
  watermark::EmbedParams embed;
  embed.start = SimTime::zero();
  embed.chip_duration = SimDuration::from_ms(cfg.chip_ms);
  embed.depth = cfg.depth;
  const watermark::Embedder embedder(family.code(cfg.true_account), embed);
  const AnonymityNetwork net(cfg.network);
  Rng rng(cfg.seed);
  const Circuit circuit = net.build_circuit(rng).value();
  const auto sends = generate_modulated_poisson(
      cfg.base_rate_pps, t_end, 1.0 + cfg.depth,
      [&embedder](double t_sec) {
        return embedder.multiplier(SimTime::from_sec(t_sec));
      },
      rng);
  const auto counts = bin_arrivals(net.transit(circuit, sends, rng), shift,
                                   chip_sec, n_chips);
  const std::vector<double> rates(counts.begin(), counts.end());

  const auto got = run_multiflow_traceback(cfg).value();
  ASSERT_EQ(got.correlations.size(), cfg.num_accounts);
  std::vector<watermark::DetectionResult> want;
  for (std::size_t a = 0; a < cfg.num_accounts; ++a) {
    const watermark::CorrelationKernel kernel(family.code(a),
                                              cfg.threshold_sigmas);
    want.push_back(kernel.scan(rates, 0).value().best);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.correlations[a]),
              std::bit_cast<std::uint64_t>(want[a].correlation))
        << "account " << a;
  }
  std::vector<double> sorted;
  for (const auto& w : want) sorted.push_back(w.correlation);
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  EXPECT_EQ(want[got.identified_account].correlation, sorted[0]);
  EXPECT_EQ(got.above_threshold, want[got.identified_account].detected);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.margin),
            std::bit_cast<std::uint64_t>(sorted[0] - sorted[1]));
}

TEST(MultiflowTest, HeavyJitterErodesMarginButNotCorrectness) {
  auto calm = easy();
  auto stormy = easy();
  stormy.network.relay_jitter_ms = 150.0;
  const auto r_calm = run_multiflow_traceback(calm).value();
  const auto r_stormy = run_multiflow_traceback(stormy).value();
  EXPECT_TRUE(r_calm.correct);
  EXPECT_TRUE(r_stormy.correct);
  EXPECT_GT(r_calm.margin, r_stormy.margin);
}

}  // namespace
}  // namespace lexfor::tornet
