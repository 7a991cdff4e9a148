#include "tornet/traceback.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "watermark/dsss.h"
#include "watermark/gold_code.h"
#include "watermark/scan_batch.h"

namespace lexfor::tornet {
namespace {

TracebackConfig easy_config() {
  TracebackConfig cfg;
  cfg.pn_degree = 9;          // 511 chips
  cfg.chip_ms = 400.0;
  cfg.depth = 0.35;
  cfg.base_rate_pps = 120.0;
  cfg.num_decoys = 6;
  cfg.seed = 101;
  return cfg;
}

TEST(TracebackTest, CollectionScenarioNeedsOnlyCourtOrder) {
  // §IV.B: rate collection at the ISP is non-content — a court order,
  // not a wiretap order.
  const auto d = legal::ComplianceEngine{}.evaluate(collection_scenario());
  EXPECT_TRUE(d.needs_process);
  EXPECT_EQ(d.required_process, legal::ProcessKind::kCourtOrder) << d.report();
}

TEST(TracebackTest, SuspectDetectedDecoysClean) {
  const auto r = run_streaming_traceback(easy_config());
  ASSERT_TRUE(r.ok()) << r.status();
  const auto& result = r.value();
  EXPECT_TRUE(result.suspect_detected)
      << "suspect corr=" << result.suspect_correlation;
  EXPECT_EQ(result.decoys_flagged, 0u)
      << "max decoy corr=" << result.max_decoy_correlation;
  EXPECT_GT(result.suspect_correlation, result.max_decoy_correlation);
}

TEST(TracebackTest, ResultContainsAllFlows) {
  auto cfg = easy_config();
  cfg.num_decoys = 4;
  const auto result = run_streaming_traceback(cfg).value();
  ASSERT_EQ(result.flows.size(), 5u);
  EXPECT_TRUE(result.flows[0].is_suspect);
  for (std::size_t i = 1; i < result.flows.size(); ++i) {
    EXPECT_FALSE(result.flows[i].is_suspect);
  }
}

TEST(TracebackTest, LegalityDeterminationIsEmbedded) {
  const auto result = run_streaming_traceback(easy_config()).value();
  EXPECT_TRUE(result.collection_legality.needs_process);
  EXPECT_EQ(result.collection_legality.required_process,
            legal::ProcessKind::kCourtOrder);
}

TEST(TracebackTest, DeterministicForFixedSeed) {
  const auto a = run_streaming_traceback(easy_config()).value();
  const auto b = run_streaming_traceback(easy_config()).value();
  EXPECT_DOUBLE_EQ(a.suspect_correlation, b.suspect_correlation);
  EXPECT_EQ(a.decoys_flagged, b.decoys_flagged);
}

TEST(TracebackTest, DetectThreadCountDoesNotChangeResults) {
  // The despread fan-out merges in input order; any pool size must
  // yield bit-identical verdicts.
  auto serial = easy_config();
  serial.detect_threads = 1;
  auto fanned = easy_config();
  fanned.detect_threads = 4;
  const auto a = run_streaming_traceback(serial).value();
  const auto b = run_streaming_traceback(fanned).value();
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flows[i].detection.correlation,
                     b.flows[i].detection.correlation);
    EXPECT_EQ(a.flows[i].detection.detected, b.flows[i].detection.detected);
  }
  EXPECT_EQ(a.decoys_flagged, b.decoys_flagged);
}

TEST(TracebackTest, HigherDepthRaisesCorrelation) {
  auto weak = easy_config();
  weak.depth = 0.1;
  weak.num_decoys = 0;
  auto strong = easy_config();
  strong.depth = 0.5;
  strong.num_decoys = 0;
  const auto r_weak = run_streaming_traceback(weak).value();
  const auto r_strong = run_streaming_traceback(strong).value();
  EXPECT_GT(r_strong.suspect_correlation, r_weak.suspect_correlation);
}

TEST(TracebackTest, InvalidPnDegreeFails) {
  auto cfg = easy_config();
  cfg.pn_degree = 99;
  EXPECT_FALSE(run_streaming_traceback(cfg).ok());
}

TEST(TracebackTest, RejectsChipShorterThanOneMicrosecond) {
  // The embedder finds a send's chip by dividing by the chip duration in
  // whole microseconds, and any chip_ms under 0.001 rounds down to 0.
  for (const double chip_ms : {0.0, 0.0009, -400.0}) {
    auto cfg = easy_config();
    cfg.chip_ms = chip_ms;
    const auto r = run_streaming_traceback(cfg);
    ASSERT_FALSE(r.ok()) << chip_ms;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << chip_ms;
  }
  auto cfg = easy_config();
  cfg.pn_degree = 7;
  cfg.num_decoys = 1;
  cfg.chip_ms = 0.001;
  EXPECT_TRUE(run_streaming_traceback(cfg).ok());
}

TEST(TracebackTest, RejectsNonFiniteChipRateOrDepth) {
  // A NaN or infinite rate or depth (std::max(NaN, 1.0) is NaN) gives a
  // peak rate no Poisson walk can take, and a non-finite chip has no
  // whole number of microseconds: each is rejected up front.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    for (int field = 0; field < 3; ++field) {
      auto cfg = easy_config();
      (field == 0 ? cfg.base_rate_pps : field == 1 ? cfg.depth : cfg.chip_ms) =
          bad;
      const auto r = run_streaming_traceback(cfg);
      ASSERT_FALSE(r.ok()) << "field " << field << " = " << bad;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
          << "field " << field << " = " << bad;
    }
  }
}

TEST(TracebackTest, HeavyJitterDegradesButLongCodeRecovers) {
  // Ablation in miniature: crank relay jitter; a short code fails more
  // often than a long one.
  auto shorter = easy_config();
  shorter.pn_degree = 5;  // 31 chips
  shorter.network.relay_jitter_ms = 150.0;
  shorter.num_decoys = 0;
  auto longer = shorter;
  longer.pn_degree = 10;  // 1023 chips

  const auto r_short = run_streaming_traceback(shorter).value();
  const auto r_long = run_streaming_traceback(longer).value();
  EXPECT_GE(r_long.suspect_correlation / r_long.flows[0].detection.threshold,
            r_short.suspect_correlation / r_short.flows[0].detection.threshold);
}

TEST(TracebackTest, PerFlowSubStreamsAreIndependentOfFlowCount) {
  // Each flow draws from Rng::sub_stream(seed, flow), so adding decoys
  // must not perturb the flows that already existed.  (This is what
  // makes the sub-stream reseeding an improvement, not just a change —
  // see EXPERIMENTS.md.)
  auto small = easy_config();
  small.pn_degree = 7;
  small.num_decoys = 2;
  auto large = small;
  large.num_decoys = 6;

  const auto a = run_streaming_traceback(small).value();
  const auto b = run_streaming_traceback(large).value();
  ASSERT_EQ(a.flows.size(), 3u);
  ASSERT_EQ(b.flows.size(), 7u);
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.flows[i].detection.correlation),
              std::bit_cast<std::uint64_t>(b.flows[i].detection.correlation))
        << "flow " << i;
  }
}

// The flows a traceback simulates, spelled out through the public
// composition (generate_modulated_poisson -> transit -> bin_arrivals,
// one flow after another) and despread by the batch kernel: the
// reference every simulation thread count must reproduce bit for bit.
std::vector<watermark::DetectionResult> composed_verdicts(
    const TracebackConfig& cfg) {
  const auto code = watermark::PnCode::m_sequence(cfg.pn_degree).value();
  const std::size_t n_chips = code.length();
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
  const watermark::Embedder embedder(code, embed);
  const watermark::CorrelationKernel kernel(code, cfg.threshold_sigmas);
  const AnonymityNetwork net(cfg.network);

  std::vector<watermark::DetectionResult> verdicts;
  for (std::size_t flow = 0; flow < 1 + cfg.num_decoys; ++flow) {
    Rng rng = Rng::sub_stream(cfg.seed, flow);
    const Circuit circuit = net.build_circuit(rng).value();
    std::function<double(double)> mult;
    if (flow == 0) {
      mult = [&embedder](double t_sec) {
        return embedder.multiplier(SimTime::from_sec(t_sec));
      };
    }
    const auto sends = generate_modulated_poisson(
        cfg.base_rate_pps, t_end, 1.0 + cfg.depth, mult, rng);
    const auto counts = bin_arrivals(net.transit(circuit, sends, rng), shift,
                                     chip_sec, n_chips);
    const std::vector<double> rates(counts.begin(), counts.end());
    verdicts.push_back(kernel.scan(rates, 0).value().best);
  }
  return verdicts;
}

void expect_same_verdicts(const TracebackResult& got,
                          const std::vector<watermark::DetectionResult>& want,
                          const std::string& where) {
  ASSERT_EQ(got.flows.size(), want.size()) << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const auto& d = got.flows[i].detection;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.correlation),
              std::bit_cast<std::uint64_t>(want[i].correlation))
        << where << " flow " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(d.threshold),
              std::bit_cast<std::uint64_t>(want[i].threshold))
        << where << " flow " << i;
    EXPECT_EQ(d.detected, want[i].detected) << where << " flow " << i;
  }
}

// The summary follows bit for bit from the per-flow verdicts: the
// suspect's own verdict, the number of decoys flagged, and the largest
// decoy correlation (0 when none scores above 0).
void expect_summary_follows(const TracebackResult& got,
                            const std::vector<watermark::DetectionResult>& want,
                            const std::string& where) {
  std::size_t flagged = 0;
  double max_decoy = 0.0;
  for (std::size_t i = 1; i < want.size(); ++i) {
    flagged += want[i].detected;
    max_decoy = std::max(max_decoy, want[i].correlation);
  }
  EXPECT_EQ(got.suspect_detected, want[0].detected) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.suspect_correlation),
            std::bit_cast<std::uint64_t>(want[0].correlation))
      << where;
  EXPECT_EQ(got.decoys_flagged, flagged) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_decoy_correlation),
            std::bit_cast<std::uint64_t>(max_decoy))
      << where;
}

TEST(TracebackTest, VerdictsMatchCompositionAtEveryThreadCount) {
  // Flows are simulated in one fused pass each and fanned across
  // detect_threads threads; neither may move a single draw.  A slipped
  // draw changes that flow's bins and so its correlation's bits.  The
  // taps' streamed despread must score each flow exactly as the batch
  // kernel does, and the summary must follow from those verdicts.
  for (const std::uint64_t seed : {101u, 202u, 303u}) {
    auto cfg = easy_config();
    cfg.pn_degree = 7;
    cfg.num_decoys = 8;
    cfg.seed = seed;
    const auto want = composed_verdicts(cfg);
    for (const unsigned threads : {0u, 1u, 2u, 4u}) {
      cfg.detect_threads = threads;
      const std::string where =
          "seed " + std::to_string(seed) + " threads " + std::to_string(threads);
      const auto got = run_streaming_traceback(cfg).value();
      expect_same_verdicts(got, want, where);
      expect_summary_follows(got, want, where);
    }
  }
}

TEST(TracebackTest, VerdictsMatchCompositionAtEverySuspectCount) {
  // The default 511-chip code with 4 and with 9 candidates in the one
  // pass: every flow must score as simulating it on its own does,
  // however many other flows share the pass.
  for (const std::size_t decoys : {std::size_t{3}, std::size_t{8}}) {
    auto cfg = easy_config();
    cfg.num_decoys = decoys;
    const auto want = composed_verdicts(cfg);
    const auto got = run_streaming_traceback(cfg).value();
    const std::string where = std::to_string(1 + decoys) + " suspects";
    expect_same_verdicts(got, want, where);
    expect_summary_follows(got, want, where);
  }
}

TEST(TracebackTest, SuspectOnlyCaseFlagsNoDecoys) {
  // With no decoys the summary carries the suspect's verdict alone:
  // nothing flagged and a decoy maximum of exactly 0.
  auto cfg = easy_config();
  cfg.pn_degree = 7;
  cfg.num_decoys = 0;
  const auto want = composed_verdicts(cfg);
  const auto got = run_streaming_traceback(cfg).value();
  ASSERT_EQ(got.flows.size(), 1u);
  EXPECT_TRUE(got.flows[0].is_suspect);
  expect_same_verdicts(got, want, "suspect only");
  expect_summary_follows(got, want, "suspect only");
  EXPECT_EQ(got.decoys_flagged, 0u);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(got.max_decoy_correlation),
            std::bit_cast<std::uint64_t>(0.0));
}

TEST(TracebackTest, ConcurrentTracebacksMatchSerial) {
  // Two investigations at once share the process-wide circuit-id
  // counter and simulation pool; neither may disturb the other's flows.
  auto a = easy_config();
  a.pn_degree = 7;
  a.num_decoys = 8;
  a.seed = 11;
  a.detect_threads = 2;
  auto b = a;
  b.seed = 12;
  b.detect_threads = 0;
  const auto want_a = composed_verdicts(a);
  const auto want_b = composed_verdicts(b);

  for (int round = 0; round < 3; ++round) {
    std::optional<Result<TracebackResult>> got_a, got_b;
    std::thread ta([&] { got_a.emplace(run_streaming_traceback(a)); });
    std::thread tb([&] { got_b.emplace(run_streaming_traceback(b)); });
    ta.join();
    tb.join();
    ASSERT_TRUE(got_a->ok()) << got_a->status();
    ASSERT_TRUE(got_b->ok()) << got_b->status();
    const std::string where = "round " + std::to_string(round);
    expect_same_verdicts(got_a->value(), want_a, "a " + where);
    expect_same_verdicts(got_b->value(), want_b, "b " + where);
  }
}

TEST(TracebackTest, SharesThePoolWithAConcurrentScanBatch) {
  // A 4-wide traceback and a 4-wide ScanBatch started at once both take
  // their helpers from the one process-wide pool; each must still match
  // its serial result bit for bit.
  auto cfg = easy_config();
  cfg.pn_degree = 7;
  cfg.num_decoys = 8;
  cfg.detect_threads = 1;
  const auto serial = run_streaming_traceback(cfg).value();
  std::vector<watermark::DetectionResult> want_flows;
  for (const FlowVerdict& f : serial.flows) want_flows.push_back(f.detection);
  cfg.detect_threads = 4;

  // Two series, each scanned under 12 Gold codes over 65 offsets: two
  // families, each split four ways.
  const auto family = watermark::GoldCodeFamily::create(7).value();
  std::vector<watermark::CorrelationKernel> kernels;
  for (std::size_t c = 0; c < 12; ++c) {
    kernels.emplace_back(family.code(c), 5.0);
  }
  Rng rng{1907};
  std::vector<std::vector<double>> series(
      2, std::vector<double>(family.code_length() + 64));
  for (auto& rates : series) {
    for (double& x : rates) x = static_cast<double>(rng.poisson(20.0));
  }
  std::vector<watermark::ScanJob> jobs;
  for (const auto& rates : series) {
    for (const auto& kernel : kernels) jobs.push_back({&kernel, rates, 64});
  }
  const auto want_scan =
      watermark::ScanBatch(watermark::ScanBatchOptions{1}).run(jobs);

  for (int round = 0; round < 3; ++round) {
    std::optional<Result<TracebackResult>> got_flows;
    std::vector<Result<watermark::ScanResult>> got_scan;
    std::thread tracer(
        [&] { got_flows.emplace(run_streaming_traceback(cfg)); });
    std::thread scanner([&] {
      got_scan = watermark::ScanBatch(watermark::ScanBatchOptions{4}).run(jobs);
    });
    tracer.join();
    scanner.join();
    const std::string where = "round " + std::to_string(round);
    ASSERT_TRUE(got_flows->ok()) << got_flows->status();
    expect_same_verdicts(got_flows->value(), want_flows, where);
    ASSERT_EQ(got_scan.size(), want_scan.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      ASSERT_TRUE(got_scan[j].ok()) << where << " job " << j;
      const auto& got = got_scan[j].value();
      const auto& want = want_scan[j].value();
      EXPECT_EQ(got.offset, want.offset) << where << " job " << j;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(got.best.correlation),
                std::bit_cast<std::uint64_t>(want.best.correlation))
          << where << " job " << j;
      EXPECT_EQ(got.best.detected, want.best.detected)
          << where << " job " << j;
    }
  }
}

}  // namespace
}  // namespace lexfor::tornet
