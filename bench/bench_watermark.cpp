// Experiment E-IVB (paper §IV.B): long-PN-code DSSS watermark traceback
// through an anonymity network — "workable method with warrant/court
// order/subpoena" (a court order: the collection is non-content).
//
// Series 1: detection rate vs PN code length (processing gain).
// Series 2: detection rate vs relay jitter (robustness).
// Series 3: detection rate vs modulation depth (stealth/robustness
//           trade-off) and decoy false-positive counts throughout.
//
// Shape to reproduce: detection improves with code length, degrades
// gracefully with jitter, and decoy flows stay below threshold; the
// legal cost stays at a court order, below a Title III wiretap.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "oracles/naive_scan.h"
#include "tornet/traceback.h"
#include "util/rng.h"
#include "watermark/correlate.h"

namespace {

using namespace lexfor;
using tornet::TracebackConfig;

struct Row {
  double detection_rate;
  double mean_suspect_corr;
  std::size_t decoy_flags;
  std::size_t decoy_flows;
};

Row sweep(TracebackConfig base, int trials) {
  Row row{0, 0, 0, 0};
  int detected = 0;
  for (int t = 0; t < trials; ++t) {
    base.seed = 1000 + static_cast<std::uint64_t>(t) * 77;
    const auto r = tornet::run_streaming_traceback(base).value();
    detected += r.suspect_detected;
    row.mean_suspect_corr += r.suspect_correlation;
    row.decoy_flags += r.decoys_flagged;
    row.decoy_flows += base.num_decoys;
  }
  row.detection_rate = static_cast<double>(detected) / trials;
  row.mean_suspect_corr /= trials;
  return row;
}

}  // namespace

int main() {
  std::printf("E-IVB: DSSS watermark traceback through an anonymity network "
              "(paper IV.B)\n");

  {
    const auto legality =
        legal::ComplianceEngine{}.evaluate(tornet::collection_scenario());
    std::printf("legal posture of collection: %s, minimum process: %s "
                "(a wiretap order is NOT needed)\n\n",
                legality.verdict().c_str(),
                std::string(legal::to_string(legality.required_process)).c_str());
  }

  constexpr int kTrials = 10;

  std::printf("Series 1: detection vs PN code length (depth 0.3, jitter "
              "30ms, 4 decoys, %d trials)\n", kTrials);
  std::printf("%8s %8s %12s %14s %12s\n", "degree", "chips", "detect rate",
              "suspect corr", "decoy FPs");
  for (const int degree : {5, 6, 7, 8, 9, 10, 11}) {
    TracebackConfig cfg;
    cfg.pn_degree = degree;
    cfg.chip_ms = 300.0;
    cfg.depth = 0.3;
    cfg.num_decoys = 4;
    const auto row = sweep(cfg, kTrials);
    std::printf("%8d %8zu %12.2f %14.4f %9zu/%zu\n", degree,
                (std::size_t{1} << degree) - 1, row.detection_rate,
                row.mean_suspect_corr, row.decoy_flags, row.decoy_flows);
  }

  std::printf("\nSeries 2: detection vs relay jitter (degree 9, depth 0.3, "
              "%d trials)\n", kTrials);
  std::printf("%12s %12s %14s %12s\n", "jitter (ms)", "detect rate",
              "suspect corr", "decoy FPs");
  for (const double jitter : {10.0, 30.0, 60.0, 120.0, 240.0, 480.0}) {
    TracebackConfig cfg;
    cfg.pn_degree = 9;
    cfg.chip_ms = 300.0;
    cfg.depth = 0.3;
    cfg.num_decoys = 4;
    cfg.network.relay_jitter_ms = jitter;
    const auto row = sweep(cfg, kTrials);
    std::printf("%12.0f %12.2f %14.4f %9zu/%zu\n", jitter, row.detection_rate,
                row.mean_suspect_corr, row.decoy_flags, row.decoy_flows);
  }

  std::printf("\nSeries 3: detection vs modulation depth (degree 9, jitter "
              "30ms, %d trials)\n", kTrials);
  std::printf("%8s %12s %14s %12s\n", "depth", "detect rate", "suspect corr",
              "decoy FPs");
  for (const double depth : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5}) {
    TracebackConfig cfg;
    cfg.pn_degree = 9;
    cfg.chip_ms = 300.0;
    cfg.depth = depth;
    cfg.num_decoys = 4;
    const auto row = sweep(cfg, kTrials);
    std::printf("%8.2f %12.2f %14.4f %9zu/%zu\n", depth, row.detection_rate,
                row.mean_suspect_corr, row.decoy_flags, row.decoy_flows);
  }

  // Series 4: alignment-free detection.  When the observer does not know
  // the embed start, the kernel's scan slides the code over candidate
  // offsets with a Bonferroni-adjusted threshold; this measures the
  // price of that uncertainty versus perfectly aligned detection.
  std::printf("\nSeries 4: aligned vs offset-scan detection vs noise "
              "(degree 9, depth 10%% of mean, 40 trials)\n");
  std::printf("%14s %12s %12s\n", "noise sigma", "aligned", "scan(100)");
  {
    const auto code = lexfor::watermark::PnCode::m_sequence(9).value();
    const lexfor::watermark::CorrelationKernel kernel(code, 4.0);
    lexfor::Rng rng{2024};
    for (const double sigma : {10.0, 20.0, 40.0, 60.0, 90.0}) {
      int aligned_ok = 0, scan_ok = 0;
      constexpr int kTrials = 40;
      for (int t = 0; t < kTrials; ++t) {
        const std::size_t offset = rng.uniform(100);
        std::vector<double> rates(offset, 0.0);
        for (auto& r : rates) r = 100.0 + rng.normal(0.0, sigma);
        for (const auto c : code.chips()) {
          rates.push_back(100.0 + 10.0 * c + rng.normal(0.0, sigma));
        }
        // Aligned detector gets the true offset for free.
        const std::vector<double> window(
            rates.begin() + static_cast<std::ptrdiff_t>(offset), rates.end());
        aligned_ok += kernel.scan(window, 0).value().best.detected;
        scan_ok += kernel.scan(rates, 100).value().best.detected;
      }
      std::printf("%14.0f %12.2f %12.2f\n", sigma,
                  static_cast<double>(aligned_ok) / kTrials,
                  static_cast<double>(scan_ok) / kTrials);
    }
  }

  // Series 5 / experiment A-SCAN: correlation-kernel scan vs the naive
  // oracle scan (tests/oracles/naive_scan.h).  Self-verifying: the two
  // scans must agree bit for bit on every trial AND the kernel must beat
  // the reference's per-offset cost, or the bench exits non-zero and
  // fails the harness.
  std::printf("\nSeries 5 (A-SCAN): kernel vs naive reference offset scan "
              "(single core)\n");
  std::printf("%8s %8s %12s %14s %14s %10s\n", "degree", "offsets", "reps",
              "ref ns/off", "kernel ns/off", "speedup");
  {
    using clock = std::chrono::steady_clock;
    bool all_identical = true;
    bool all_faster = true;
    lexfor::Rng rng{4242};
    for (const int degree : {8, 10, 12}) {
      const auto code = lexfor::watermark::PnCode::m_sequence(degree).value();
      const lexfor::watermark::CorrelationKernel kernel(code, 5.0);
      const std::size_t max_offset = 256;
      std::vector<double> rates;
      for (std::size_t i = 0; i < max_offset / 2; ++i) {
        rates.push_back(100.0 + rng.normal(0.0, 10.0));
      }
      for (const auto c : code.chips()) {
        rates.push_back(100.0 * (1.0 + 0.3 * c) + rng.normal(0.0, 10.0));
      }
      for (std::size_t i = 0; i < max_offset; ++i) {
        rates.push_back(100.0 + rng.normal(0.0, 10.0));
      }
      const std::size_t offsets =
          std::min(max_offset, rates.size() - code.length()) + 1;
      const int reps = degree >= 12 ? 20 : 60;

      // Correctness gate first: bit-identical ScanResult.
      const auto ref =
          lexfor::oracles::naive_scan(code, rates, max_offset).value();
      const auto ker = kernel.scan(rates, max_offset).value();
      const bool identical =
          ref.offset == ker.offset &&
          ref.best.detected == ker.best.detected &&
          std::bit_cast<std::uint64_t>(ref.best.correlation) ==
              std::bit_cast<std::uint64_t>(ker.best.correlation) &&
          std::bit_cast<std::uint64_t>(ref.best.threshold) ==
              std::bit_cast<std::uint64_t>(ker.best.threshold);
      all_identical = all_identical && identical;

      double sink = 0.0;  // defeat dead-code elimination
      const auto t0 = clock::now();
      for (int r = 0; r < reps; ++r) {
        sink += lexfor::oracles::naive_scan(code, rates, max_offset)
                    .value()
                    .best.correlation;
      }
      const auto t1 = clock::now();
      for (int r = 0; r < reps; ++r) {
        sink += kernel.scan(rates, max_offset).value().best.correlation;
      }
      const auto t2 = clock::now();
      const double ref_ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          (static_cast<double>(reps) * static_cast<double>(offsets));
      const double ker_ns =
          std::chrono::duration<double, std::nano>(t2 - t1).count() /
          (static_cast<double>(reps) * static_cast<double>(offsets));
      all_faster = all_faster && ker_ns < ref_ns;
      std::printf("%8d %8zu %12d %14.1f %14.1f %9.2fx%s\n", degree, offsets,
                  reps, ref_ns, ker_ns, ref_ns / ker_ns,
                  identical ? "" : "  MISMATCH");
      if (sink == -1.0) std::printf("%f\n", sink);
    }
    if (!all_identical) {
      std::printf("A-SCAN FAILED: kernel and reference scans disagree\n");
      return 1;
    }
    if (!all_faster) {
      std::printf("A-SCAN FAILED: kernel not faster than the naive "
                  "reference\n");
      return 1;
    }
    std::printf("A-SCAN OK: bit-identical scores, kernel faster at every "
                "degree\n");
  }

  // Series 6 / experiment A-SIMD: the offset-blocked scan (one offset
  // per vector lane; 16 offsets a block with AVX2, 8 at the baseline
  // ISA) vs a loop of single-window despread() calls, which is how the
  // scan ran before blocking.  Self-verifying on two axes:
  //   (1) correctness — 300 randomized trials must be BIT-identical to
  //       the naive reference scan (offset, decision, correlation and
  //       threshold);
  //   (2) performance — the blocked scan must be >= 2.0x the
  //       despread() loop per offset at every degree, or the bench
  //       exits non-zero.
  // Both instantiations are bit-identical, so the series runs on every
  // build and host.  A-SIMD-METRIC lines are machine-readable for
  // tools/bench_diff.py.
  const bool avx2 = lexfor::watermark::CorrelationKernel::simd_lane_available();
  std::printf("\nSeries 6 (A-SIMD): offset-blocked scan (%s) vs per-offset "
              "despread loop (single core)\n",
              avx2 ? "AVX2, 16 offsets a block"
                   : "baseline ISA, 8 offsets a block");
  {
    using clock = std::chrono::steady_clock;
    lexfor::Rng rng{20260809};

    // Correctness gate: randomized degrees/offsets/marks, every
    // ScanResult field bit-identical to the naive reference.
    constexpr int kTrials = 300;
    int mismatches = 0;
    for (int t = 0; t < kTrials; ++t) {
      const int degree = 8 + static_cast<int>(rng.uniform(5));  // 8..12
      const auto code = lexfor::watermark::PnCode::m_sequence(degree).value();
      const lexfor::watermark::CorrelationKernel kernel(code);
      const std::size_t max_offset = t % 2 == 0 ? 0 : 256;
      const std::size_t embed = rng.uniform(max_offset + 1);
      const double sigma = 1.0 + 30.0 * rng.uniform01();
      const bool marked = rng.bernoulli(0.5);
      std::vector<double> rates;
      for (std::size_t i = 0; i < embed; ++i) {
        rates.push_back(100.0 + rng.normal(0.0, sigma));
      }
      for (const auto c : code.chips()) {
        rates.push_back(100.0 + (marked ? 25.0 * c : 0.0) +
                        rng.normal(0.0, sigma));
      }
      for (std::size_t i = embed; i < max_offset + 8; ++i) {
        rates.push_back(100.0 + rng.normal(0.0, sigma));
      }
      const auto ref =
          lexfor::oracles::naive_scan(code, rates, max_offset).value();
      const auto got = kernel.scan(rates, max_offset).value();
      const bool identical =
          ref.offset == got.offset &&
          ref.best.detected == got.best.detected &&
          std::bit_cast<std::uint64_t>(ref.best.correlation) ==
              std::bit_cast<std::uint64_t>(got.best.correlation) &&
          std::bit_cast<std::uint64_t>(ref.best.threshold) ==
              std::bit_cast<std::uint64_t>(got.best.threshold);
      if (!identical) ++mismatches;
    }
    std::printf("bit-identical to the reference: %d/%d randomized trials\n",
                kTrials - mismatches, kTrials);
    if (mismatches != 0) {
      std::printf("A-SIMD FAILED: blocked scan and reference scan "
                  "disagree\n");
      return 1;
    }

    // Performance gate: both paths timed over the same series.
    std::printf("%8s %8s %12s %16s %14s %10s\n", "degree", "offsets", "reps",
                "despread ns/off", "scan ns/off", "speedup");
    bool all_2x = true;
    for (const int degree : {8, 10, 12}) {
      const auto code = lexfor::watermark::PnCode::m_sequence(degree).value();
      const lexfor::watermark::CorrelationKernel kernel(code, 5.0);
      const std::size_t max_offset = 256;
      std::vector<double> rates;
      for (std::size_t i = 0; i < max_offset / 2; ++i) {
        rates.push_back(100.0 + rng.normal(0.0, 10.0));
      }
      for (const auto c : code.chips()) {
        rates.push_back(100.0 * (1.0 + 0.3 * c) + rng.normal(0.0, 10.0));
      }
      for (std::size_t i = 0; i < max_offset; ++i) {
        rates.push_back(100.0 + rng.normal(0.0, 10.0));
      }
      const std::size_t n = code.length();
      const std::size_t offsets = std::min(max_offset, rates.size() - n) + 1;
      const int reps = degree >= 12 ? 20 : 60;

      double sink = 0.0;
      const auto t0 = clock::now();
      for (int r = 0; r < reps; ++r) {
        double best = -2.0;
        for (std::size_t off = 0; off < offsets; ++off) {
          best = std::max(best, kernel.despread(rates.data() + off, 0, n));
        }
        sink += best;
      }
      const auto t1 = clock::now();
      for (int r = 0; r < reps; ++r) {
        sink += kernel.scan(rates, max_offset).value().best.correlation;
      }
      const auto t2 = clock::now();
      const double loop_ns =
          std::chrono::duration<double, std::nano>(t1 - t0).count() /
          (static_cast<double>(reps) * static_cast<double>(offsets));
      const double scan_ns =
          std::chrono::duration<double, std::nano>(t2 - t1).count() /
          (static_cast<double>(reps) * static_cast<double>(offsets));
      all_2x = all_2x && scan_ns * 2.0 <= loop_ns;
      std::printf("%8d %8zu %12d %16.1f %14.1f %9.2fx\n", degree, offsets,
                  reps, loop_ns, scan_ns, loop_ns / scan_ns);
      std::printf("A-SIMD-METRIC despread_loop_deg%d_ns_per_offset %.1f\n",
                  degree, loop_ns);
      std::printf("A-SIMD-METRIC blocked_scan_deg%d_ns_per_offset %.1f\n",
                  degree, scan_ns);
      if (sink == -1.0) std::printf("%f\n", sink);
    }
    if (!all_2x) {
      std::printf("A-SIMD FAILED: blocked scan under 2.0x the per-offset "
                  "despread loop\n");
      return 1;
    }
    std::printf("A-SIMD OK: bit-identical to the reference, >= 2x at every "
                "degree\n");
  }
  return 0;
}
