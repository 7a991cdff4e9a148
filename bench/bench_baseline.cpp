// E-IVB baseline comparison: active DSSS watermarking vs passive
// flow-correlation, on identical network conditions and matched
// observation time.  The paper's claim to reproduce (§IV.B): "we claim
// the method is more effective than other methods" — expect the
// watermark to hold its success rate as relay mixing grows while the
// passive baseline collapses, and to scale better with decoy count.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "oracles/pearson.h"
#include "tornet/baseline.h"
#include "util/rng.h"
#include "watermark/correlate.h"

int main() {
  using namespace lexfor::tornet;

  std::printf("E-IVB baseline: active watermark vs passive correlation\n");
  std::printf("(success = suspect identified with zero decoy confusion; "
              "5 trials per point)\n\n");

  constexpr int kTrials = 5;

  std::printf("Series 1: success vs relay jitter (degree 9, depth 0.35, "
              "6 decoys)\n");
  std::printf("%12s %18s %18s\n", "jitter (ms)", "watermark", "passive");
  for (const double jitter : {20.0, 60.0, 120.0, 250.0, 500.0}) {
    TracebackConfig cfg;
    cfg.pn_degree = 9;
    cfg.chip_ms = 400.0;
    cfg.depth = 0.35;
    cfg.num_decoys = 6;
    cfg.network.relay_jitter_ms = jitter;
    cfg.network.relay_batch_ms = jitter / 2.0;
    cfg.seed = 71;
    const auto r = run_baseline_comparison(cfg, kTrials).value();
    std::printf("%12.0f %18.2f %18.2f\n", jitter, r.watermark_success_rate,
                r.passive_success_rate);
  }

  std::printf("\nSeries 2: success vs decoy count (jitter 250ms)\n");
  std::printf("%12s %18s %18s\n", "decoys", "watermark", "passive");
  for (const std::size_t decoys : {2u, 4u, 8u, 16u, 32u}) {
    TracebackConfig cfg;
    cfg.pn_degree = 9;
    cfg.chip_ms = 400.0;
    cfg.depth = 0.35;
    cfg.num_decoys = decoys;
    cfg.network.relay_jitter_ms = 250.0;
    cfg.network.relay_batch_ms = 125.0;
    cfg.seed = 73;
    const auto r = run_baseline_comparison(cfg, kTrials).value();
    std::printf("%12zu %18.2f %18.2f\n", decoys, r.watermark_success_rate,
                r.passive_success_rate);
  }

  std::printf("\nSeries 3: success vs observation time (jitter 250ms, via "
              "code degree)\n");
  std::printf("%8s %14s %18s %18s\n", "degree", "observe (s)", "watermark",
              "passive");
  for (const int degree : {6, 7, 8, 9, 10}) {
    TracebackConfig cfg;
    cfg.pn_degree = degree;
    cfg.chip_ms = 400.0;
    cfg.depth = 0.35;
    cfg.num_decoys = 6;
    cfg.network.relay_jitter_ms = 250.0;
    cfg.network.relay_batch_ms = 125.0;
    cfg.seed = 79;
    const auto r = run_baseline_comparison(cfg, kTrials).value();
    std::printf("%8d %14.1f %18.2f %18.2f\n", degree, r.observation_sec,
                r.watermark_success_rate, r.passive_success_rate);
  }

  // Gate: the passive baseline now scores flows through the shared
  // CorrelationKernel::cross_score; it must still be bit-identical to
  // the naive pearson it replaced, or the comparison above is invalid.
  {
    lexfor::Rng rng{4242};
    bool identical = true;
    for (int trial = 0; trial < 50; ++trial) {
      const std::size_t n = 2 + rng.uniform(300);
      std::vector<double> a(n), b(n);
      for (std::size_t i = 0; i < n; ++i) {
        a[i] = rng.normal(120.0, 30.0);
        b[i] = 0.5 * a[i] + rng.normal(0.0, 12.0);
      }
      const double kernel =
          lexfor::watermark::CorrelationKernel::cross_score(a, b);
      const double naive = lexfor::oracles::pearson(a, b);
      identical = identical && std::bit_cast<std::uint64_t>(kernel) ==
                                   std::bit_cast<std::uint64_t>(naive);
    }
    if (!identical) {
      std::printf("\nE-IVB FAILED: cross_score diverged from the naive "
                  "pearson oracle\n");
      return 1;
    }
    std::printf("\nE-IVB gate OK: kernel cross_score bit-identical to the "
                "pearson oracle\n");
  }
  return 0;
}
