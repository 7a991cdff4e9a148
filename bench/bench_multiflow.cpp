// E-IVB extension: Gold-code multi-flow traceback — marking every
// account on the seized server simultaneously, each with its own code
// from a Gold family, and identifying which account the observed client
// corresponds to.  This is the natural scale-up of the paper's single
// suspect scenario ("they find a lot of accounts on that server").

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>

#include "tornet/traceback.h"
#include "watermark/gold_code.h"
#include "watermark/multibit.h"
#include "watermark/scan_batch.h"

namespace {

using lexfor::tornet::MultiflowConfig;
using lexfor::tornet::run_multiflow_traceback;

struct Row {
  double accuracy;
  double mean_margin;
};

Row sweep(MultiflowConfig base, int trials) {
  Row row{0, 0};
  int correct = 0;
  for (int t = 0; t < trials; ++t) {
    auto cfg = base;
    cfg.seed = 500 + static_cast<std::uint64_t>(t) * 97;
    cfg.true_account = static_cast<std::size_t>(t) % base.num_accounts;
    const auto r = run_multiflow_traceback(cfg).value();
    correct += r.correct;
    row.mean_margin += r.margin;
  }
  row.accuracy = static_cast<double>(correct) / trials;
  row.mean_margin /= trials;
  return row;
}

}  // namespace

int main() {
  std::printf("E-IVB/multiflow: Gold-code account identification "
              "(degree-9 family, 511 chips, 10 trials per point)\n\n");

  constexpr int kTrials = 10;

  std::printf("Series 1: accuracy vs number of concurrently marked accounts\n");
  std::printf("%12s %12s %14s\n", "accounts", "accuracy", "mean margin");
  for (const std::size_t accounts : {2u, 4u, 8u, 16u, 32u, 64u}) {
    MultiflowConfig cfg;
    cfg.gold_degree = 9;
    cfg.num_accounts = accounts;
    cfg.chip_ms = 400.0;
    cfg.depth = 0.35;
    const auto row = sweep(cfg, kTrials);
    std::printf("%12zu %12.2f %14.4f\n", accounts, row.accuracy,
                row.mean_margin);
  }

  std::printf("\nSeries 2: accuracy vs relay jitter (8 accounts)\n");
  std::printf("%12s %12s %14s\n", "jitter (ms)", "accuracy", "mean margin");
  for (const double jitter : {30.0, 100.0, 200.0, 400.0}) {
    MultiflowConfig cfg;
    cfg.gold_degree = 9;
    cfg.num_accounts = 8;
    cfg.chip_ms = 400.0;
    cfg.depth = 0.35;
    cfg.network.relay_jitter_ms = jitter;
    const auto row = sweep(cfg, kTrials);
    std::printf("%12.0f %12.2f %14.4f\n", jitter, row.accuracy,
                row.mean_margin);
  }

  std::printf("\nSeries 3: accuracy vs modulation depth (8 accounts)\n");
  std::printf("%12s %12s %14s\n", "depth", "accuracy", "mean margin");
  for (const double depth : {0.1, 0.2, 0.35, 0.5}) {
    MultiflowConfig cfg;
    cfg.gold_degree = 9;
    cfg.num_accounts = 8;
    cfg.chip_ms = 400.0;
    cfg.depth = depth;
    const auto row = sweep(cfg, kTrials);
    std::printf("%12.2f %12.2f %14.4f\n", depth, row.accuracy,
                row.mean_margin);
  }

  // Series 4: multi-bit payload through the network.  Embed a 16-bit
  // case id (each bit spread over 63 chips of a degree-10 code) in the
  // suspect flow's rate and decode it from the binned arrivals at the
  // ISP; report bit error rate vs relay jitter.
  std::printf("\nSeries 4: 16-bit payload BER vs relay jitter "
              "(63 chips/bit, depth 0.35, 10 trials)\n");
  std::printf("%12s %12s\n", "jitter (ms)", "mean BER");
  {
    using namespace lexfor;
    const auto code = watermark::PnCode::m_sequence(10).value();
    const std::vector<std::int8_t> case_id = {1, -1, 1, 1, -1, -1, 1, -1,
                                              -1, 1, -1, 1, 1, -1, 1, 1};
    watermark::MultiBitParams mp;
    mp.start = SimTime::zero();
    mp.chip_duration = SimDuration::from_ms(400.0);
    mp.depth = 0.35;
    mp.chips_per_bit = 63;
    const auto embedder =
        watermark::MultiBitEmbedder::create(code, case_id, mp).value();
    const std::size_t n_chips = case_id.size() * mp.chips_per_bit;
    const double chip_sec = 0.4;
    const double t_end = chip_sec * static_cast<double>(n_chips) + 2.0;

    for (const double jitter : {30.0, 100.0, 200.0, 400.0}) {
      tornet::TorConfig net_cfg;
      net_cfg.relay_jitter_ms = jitter;
      tornet::AnonymityNetwork net(net_cfg);
      double ber_sum = 0.0;
      constexpr int kBerTrials = 10;
      for (int t = 0; t < kBerTrials; ++t) {
        Rng rng(9000 + static_cast<std::uint64_t>(t) * 31);
        const auto circuit = net.build_circuit(rng).value();
        const auto sends = tornet::generate_modulated_poisson(
            150.0, t_end, 1.0 + mp.depth,
            [&embedder](double t_sec) {
              return embedder.multiplier(SimTime::from_sec(t_sec));
            },
            rng);
        const auto arrivals = net.transit(circuit, sends, rng);
        const double shift =
            3.0 * (net_cfg.hop_latency_ms + net_cfg.relay_jitter_ms +
                   net_cfg.relay_batch_ms / 2.0) * 1e-3;
        const auto bins =
            tornet::bin_arrivals(arrivals, shift, chip_sec, n_chips);
        std::vector<double> rates(bins.begin(), bins.end());
        const watermark::MultiBitDecoder decoder(code, mp.chips_per_bit);
        ber_sum += decoder.decode_and_compare(rates, case_id)
                       .value()
                       .bit_error_rate;
      }
      std::printf("%12.0f %12.4f\n", jitter, ber_sum / kBerTrials);
    }
  }

  // Series 5 / experiment A-SCAN (parallel side): the whole Gold family
  // scanning one tap through watermark::ScanBatch, which runs it as one
  // family scan split into a code range per worker, against the serial
  // per-account loop of kernel.scan() calls.  Two taps: normal noise
  // around 100, whose fractional rates take the exact family path, and
  // Poisson counts as a tap bins them, whose whole counts take the
  // ranked path.  Self-verifying: the batch correlations must be
  // bit-identical to the serial ones, or the bench exits non-zero.
  // A-SCAN-METRIC lines carry the serial time and the batch time at each
  // thread count for tools/bench_diff.py, the counts' names prefixed
  // `counts_`.
  {
    using namespace lexfor;
    using clock = std::chrono::steady_clock;
    const auto family = watermark::GoldCodeFamily::create(9).value();
    const std::size_t n_chips = family.code_length();
    const std::size_t max_offset = 128;
    std::vector<watermark::CorrelationKernel> kernels;
    kernels.reserve(family.size());
    for (std::size_t a = 0; a < family.size(); ++a) {
      kernels.emplace_back(family.code(a), 5.0);
    }
    Rng rng{7777};
    std::vector<double> noise;
    std::vector<double> counts;
    for (std::size_t i = 0; i < n_chips + max_offset + 32; ++i) {
      noise.push_back(100.0 + rng.normal(0.0, 20.0));
      counts.push_back(static_cast<double>(rng.poisson(100.0)));
    }

    bool all_identical = true;
    for (const auto& [label, prefix, rates] :
         {std::tuple{"normal noise, exact path", "", &noise},
          std::tuple{"Poisson counts, ranked path", "counts_", &counts}}) {
      std::printf("\nSeries 5 (A-SCAN): serial vs ScanBatch multi-code "
                  "offset scan (degree-9 Gold family, %zu codes, max_offset "
                  "128, %s)\n",
                  family.size(), label);
      std::printf("%10s %14s %10s\n", "threads", "scan ms", "speedup");
      std::vector<watermark::ScanJob> jobs(kernels.size());
      for (std::size_t a = 0; a < kernels.size(); ++a) {
        jobs[a].kernel = &kernels[a];
        jobs[a].rates = std::span<const double>(*rates);
        jobs[a].max_offset = max_offset;
      }

      constexpr int kReps = 8;
      // Serial baseline: one kernel.scan per account, in order.
      std::vector<watermark::ScanResult> serial;
      const auto t0 = clock::now();
      for (int r = 0; r < kReps; ++r) {
        serial.clear();
        for (const auto& job : jobs) {
          serial.push_back(
              job.kernel->scan(job.rates, job.max_offset).value());
        }
      }
      const auto t1 = clock::now();
      const double serial_ms =
          std::chrono::duration<double, std::milli>(t1 - t0).count() / kReps;
      std::printf("%10s %14.3f %10s\n", "serial", serial_ms, "1.00x");
      std::printf("A-SCAN-METRIC %sserial_per_code_scan_ms %.3f\n", prefix,
                  serial_ms);

      for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        const watermark::ScanBatch batch(watermark::ScanBatchOptions{threads});
        std::vector<Result<watermark::ScanResult>> fanned = batch.run(jobs);
        const auto b0 = clock::now();
        for (int r = 0; r < kReps; ++r) fanned = batch.run(jobs);
        const auto b1 = clock::now();
        for (std::size_t a = 0; a < jobs.size(); ++a) {
          const auto& got = fanned[a].value();
          all_identical =
              all_identical && got.offset == serial[a].offset &&
              std::bit_cast<std::uint64_t>(got.best.correlation) ==
                  std::bit_cast<std::uint64_t>(serial[a].best.correlation);
        }
        const double batch_ms =
            std::chrono::duration<double, std::milli>(b1 - b0).count() /
            kReps;
        std::printf("%10u %14.3f %9.2fx%s\n", threads, batch_ms,
                    serial_ms / batch_ms, all_identical ? "" : "  MISMATCH");
        std::printf("A-SCAN-METRIC %sbatch_scan_ms_threads_%u %.3f\n", prefix,
                    threads, batch_ms);
      }
    }
    if (!all_identical) {
      std::printf("A-SCAN FAILED: ScanBatch correlations differ from the "
                  "serial loop\n");
      return 1;
    }
    std::printf("A-SCAN OK: ScanBatch bit-identical to the serial loop at "
                "every thread count, on both taps\n");
  }
  return 0;
}
