#include "anonp2p/investigator.h"

#include <gtest/gtest.h>

namespace lexfor::anonp2p {
namespace {

OverlayConfig well_separated() {
  OverlayConfig cfg;
  cfg.num_peers = 80;
  cfg.trusted_degree = 4;
  cfg.file_popularity = 0.3;
  cfg.local_lookup_ms = 15.0;
  cfg.hop_delay_ms = 120.0;  // large gap: easy classification
  cfg.seed = 5;
  return cfg;
}

std::vector<PeerId> all_peers(const Overlay& overlay) {
  std::vector<PeerId> out;
  for (std::size_t i = 0; i < overlay.peer_count(); ++i) out.emplace_back(i);
  return out;
}

TEST(InvestigatorTest, LegalScenarioNeedsNoProcess) {
  // The paper's §IV.A conclusion: "such kinds of attack can be directly
  // used in criminal investigations ahead of a warrant/court
  // order/subpoena."
  const auto d = legal::ComplianceEngine{}.evaluate(
      TimingInvestigator::legal_scenario());
  EXPECT_FALSE(d.needs_process) << d.report();
  EXPECT_EQ(d.required_process, legal::ProcessKind::kNone);
}

TEST(InvestigatorTest, HighAccuracyWithWellSeparatedDelays) {
  Overlay overlay(well_separated());
  TimingInvestigator inv(overlay, all_peers(overlay));
  Rng rng{11};
  const auto report = inv.run(/*probes_per_neighbor=*/40, rng);
  EXPECT_GT(report.accuracy, 0.9) << "threshold=" << report.threshold_ms;
  EXPECT_GT(report.true_positive_rate, 0.9);
  EXPECT_LT(report.false_positive_rate, 0.1);
}

TEST(InvestigatorTest, GroundTruthIsCarriedThrough) {
  Overlay overlay(well_separated());
  TimingInvestigator inv(overlay, all_peers(overlay));
  Rng rng{13};
  const auto report = inv.run(20, rng);
  for (const auto& c : report.neighbors) {
    EXPECT_EQ(c.truly_source, overlay.holds_file(c.peer));
  }
}

TEST(InvestigatorTest, ReportCarriesLegalityDetermination) {
  Overlay overlay(well_separated());
  TimingInvestigator inv(overlay, all_peers(overlay));
  Rng rng{17};
  const auto report = inv.run(10, rng);
  EXPECT_FALSE(report.legality.needs_process);
  EXPECT_FALSE(report.legality.rationale.empty());
}

TEST(InvestigatorTest, ExplicitThresholdIsUsedVerbatim) {
  Overlay overlay(well_separated());
  TimingInvestigator inv(overlay, all_peers(overlay), /*threshold_ms=*/55.0);
  Rng rng{19};
  const auto report = inv.run(20, rng);
  EXPECT_DOUBLE_EQ(report.threshold_ms, 55.0);
}

TEST(InvestigatorTest, MoreProbesImproveOrMaintainAccuracy) {
  OverlayConfig cfg = well_separated();
  cfg.hop_delay_ms = 40.0;  // harder problem: overlapping tails
  Overlay overlay(cfg);
  TimingInvestigator inv(overlay, all_peers(overlay));

  Rng rng_few{23};
  Rng rng_many{23};
  const auto few = inv.run(2, rng_few);
  const auto many = inv.run(80, rng_many);
  EXPECT_GE(many.accuracy + 0.05, few.accuracy);  // allow small noise
  EXPECT_GT(many.accuracy, 0.75);
}

TEST(InvestigatorTest, TimeoutsAreCountedNotCrashed) {
  OverlayConfig cfg;
  cfg.num_peers = 40;
  cfg.trusted_degree = 2;
  cfg.file_popularity = 0.0;  // single holder
  cfg.max_forward_hops = 1;
  cfg.seed = 3;
  Overlay overlay(cfg);
  TimingInvestigator inv(overlay, all_peers(overlay));
  Rng rng{29};
  const auto report = inv.run(5, rng);
  std::size_t total_timeouts = 0;
  for (const auto& c : report.neighbors) total_timeouts += c.timeouts;
  EXPECT_GT(total_timeouts, 0u);
}

TEST(InvestigatorTest, SubsetProbingOnlyClassifiesSubset) {
  Overlay overlay(well_separated());
  const std::vector<PeerId> subset{PeerId{0}, PeerId{1}, PeerId{2}};
  TimingInvestigator inv(overlay, subset);
  Rng rng{31};
  const auto report = inv.run(10, rng);
  EXPECT_EQ(report.neighbors.size(), 3u);
}

// Every neighbour's classification by TimingInvestigator::run, with its
// response and timeout counts, over 40 default overlays probed 1, 5 and
// 20 times each, folded with FNV-1a.  The delays take the owned
// util::log and the medians and the gap rule are IEEE arithmetic, so
// every host and build gives these bits; the default build, the
// LEXFOR_SIMD=OFF leg and the hwcaps -AVX2,-FMA stage run it.
TEST(InvestigatorTest, ClassificationsMatchTheGoldenDigest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  std::size_t sources = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    OverlayConfig cfg;
    cfg.seed = seed;
    const Overlay overlay(cfg);
    const TimingInvestigator inv(overlay, all_peers(overlay));
    for (const std::size_t probes :
         {std::size_t{1}, std::size_t{5}, std::size_t{20}}) {
      Rng rng = Rng::sub_stream(seed, probes);
      const auto report = inv.run(probes, rng);
      add(report.neighbors.size());
      for (const auto& c : report.neighbors) {
        add(c.peer.value());
        add(c.classified_source);
        add(c.responses);
        add(c.timeouts);
        sources += c.classified_source;
      }
    }
  }
  EXPECT_GT(sources, 0u);
  EXPECT_EQ(h, 0xafa90e3c80985384ULL);
}

}  // namespace
}  // namespace lexfor::anonp2p
