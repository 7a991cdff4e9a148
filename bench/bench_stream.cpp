// Experiment A-STREAM: bounded-memory streaming despread vs the batch
// oracle.
//
// Self-verifying, like bench_watermark's A-SCAN: the bench exits
// non-zero unless
//   (1) the OnlineDespreader's verdict is bit-identical to the batch
//       CorrelationKernel::scan on randomized flows/codes/offsets,
//   (2) peak state is exactly O(ring capacity + code length) doubles
//       and never grows over a stream 50x the code length,
//   (3) a TapSession under a court order admits the §IV.B collection
//       posture while a content-grab with the same order is refused,
//   (4) run_streaming_traceback, which simulates every candidate flow
//       in one pass and taps each through one TapRegistry, gives every
//       flow the verdict composed_traceback below gives it, bit for
//       bit, at 4 and 9 suspects.  composed_traceback runs each flow
//       on its own through generate -> transit -> bin and despreads it
//       with the batch kernel.
// It also reports the per-bin ingest cost (the number an ISP-side
// deployment would size hardware against), the single-pass wall time
// at 4 and 9 suspects, and how the default traceback's time splits
// between the fused per-flow pass and the simulation fan-out.

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "legal/process.h"
#include "stream/online_despread.h"
#include "stream/tap_session.h"
#include "tornet/traceback.h"
#include "util/rng.h"
#include "watermark/correlate.h"
#include "watermark/dsss.h"
#include "watermark/pn_code.h"

namespace {

using lexfor::Rng;
using lexfor::stream::OnlineDespreader;
using lexfor::watermark::CorrelationKernel;
using lexfor::watermark::PnCode;

std::vector<double> random_series(const PnCode& code, std::size_t offset,
                                  std::size_t tail, bool marked,
                                  double sigma, Rng& rng) {
  std::vector<double> rates;
  rates.reserve(offset + code.length() + tail);
  for (std::size_t i = 0; i < offset; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, sigma));
  }
  for (const auto c : code.chips()) {
    const double mark = marked ? 30.0 * static_cast<double>(c) : 0.0;
    rates.push_back(100.0 + mark + rng.normal(0.0, sigma));
  }
  for (std::size_t i = 0; i < tail; ++i) {
    rates.push_back(100.0 + rng.normal(0.0, sigma));
  }
  return rates;
}

bool bit_identical(const lexfor::watermark::ScanResult& a,
                   const lexfor::watermark::ScanResult& b) {
  return a.offset == b.offset && a.best.detected == b.best.detected &&
         std::bit_cast<std::uint64_t>(a.best.correlation) ==
             std::bit_cast<std::uint64_t>(b.best.correlation) &&
         std::bit_cast<std::uint64_t>(a.best.threshold) ==
             std::bit_cast<std::uint64_t>(b.best.threshold);
}

// run_streaming_traceback's flows spelled out through the public
// composition, one flow after another, and despread by the batch
// kernel: the pipeline the fused per-flow pass replaced, gate 4's
// oracle and the timing reference.
std::vector<lexfor::watermark::DetectionResult> composed_traceback(
    const lexfor::tornet::TracebackConfig& cfg) {
  namespace tornet = lexfor::tornet;
  const auto code = PnCode::m_sequence(cfg.pn_degree).value();
  const std::size_t n_chips = code.length();
  const double chip_sec = cfg.chip_ms * 1e-3;
  const double t_end = chip_sec * static_cast<double>(n_chips) + 2.0;
  const double shift =
      static_cast<double>(cfg.network.circuit_length) *
      (cfg.network.hop_latency_ms + cfg.network.relay_jitter_ms +
       cfg.network.relay_batch_ms / 2.0) *
      1e-3;
  lexfor::watermark::EmbedParams embed;
  embed.start = lexfor::SimTime::zero();
  embed.chip_duration = lexfor::SimDuration::from_ms(cfg.chip_ms);
  embed.depth = cfg.depth;
  const lexfor::watermark::Embedder embedder(code, embed);
  const CorrelationKernel kernel(code, cfg.threshold_sigmas);
  const tornet::AnonymityNetwork net(cfg.network);

  std::vector<lexfor::watermark::DetectionResult> verdicts;
  for (std::size_t flow = 0; flow < 1 + cfg.num_decoys; ++flow) {
    Rng rng = Rng::sub_stream(cfg.seed, flow);
    const auto circuit = net.build_circuit(rng).value();
    std::function<double(double)> mult;
    if (flow == 0) {
      mult = [&embedder](double t_sec) {
        return embedder.multiplier(lexfor::SimTime::from_sec(t_sec));
      };
    }
    const auto sends = tornet::generate_modulated_poisson(
        cfg.base_rate_pps, t_end, 1.0 + cfg.depth, mult, rng);
    const auto counts = tornet::bin_arrivals(
        net.transit(circuit, sends, rng), shift, chip_sec, n_chips);
    const std::vector<double> rates(counts.begin(), counts.end());
    verdicts.push_back(kernel.scan(rates, 0).value().best);
  }
  return verdicts;
}

// Wall time (ms) of one call of fn().
template <typename Fn>
double time_ms(const Fn& fn) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

}  // namespace

int main() {
  std::printf("A-STREAM: online despreader vs batch scan oracle\n\n");

  // Gate 1: randomized bit-identity.
  {
    Rng rng{20260805};
    constexpr int kTrials = 300;
    int mismatches = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      const int degree = 5 + static_cast<int>(rng.uniform(6));  // 5..10
      const auto code = PnCode::m_sequence(degree).value();
      const std::size_t max_offset = rng.uniform(96);
      const std::size_t embed = rng.uniform(max_offset + 1);
      const std::size_t tail = max_offset - embed + rng.uniform(20);
      const double sigma = 1.0 + 40.0 * rng.uniform01();
      const auto rates = random_series(code, embed, tail,
                                       rng.bernoulli(0.5), sigma, rng);

      const CorrelationKernel kernel(code);
      OnlineDespreader online(kernel, max_offset);
      for (const double r : rates) (void)online.push(r);
      const auto batch = kernel.scan(rates, max_offset).value();
      if (!online.verdict().complete ||
          !bit_identical(online.verdict().scan, batch)) {
        ++mismatches;
      }
    }
    std::printf("bit-identity: %d/%d randomized trials identical\n",
                kTrials - mismatches, kTrials);
    if (mismatches != 0) {
      std::printf("A-STREAM FAILED: streaming verdict diverged from the "
                  "batch oracle\n");
      return 1;
    }
  }

  // Gate 2 + ingest cost: memory must stay flat while we time push().
  std::printf("\n%8s %10s %12s %14s %12s\n", "degree", "max_off",
              "bins", "state doubles", "ns/bin");
  {
    using clock = std::chrono::steady_clock;
    Rng rng{99};
    bool memory_ok = true;
    for (const int degree : {8, 10, 12}) {
      for (const std::size_t max_offset : {std::size_t{0}, std::size_t{256}}) {
        const auto code = PnCode::m_sequence(degree).value();
        const CorrelationKernel kernel(code);
        const std::size_t n = code.length();
        const std::size_t bins = 50 * n;
        std::vector<double> stream(bins);
        for (auto& r : stream) r = rng.normal(100.0, 15.0);

        OnlineDespreader online(kernel, max_offset);
        const std::size_t expected = n + max_offset;
        double sink = 0.0;  // defeat dead-code elimination
        const auto t0 = clock::now();
        for (const double r : stream) {
          const auto score = online.push(r);
          if (score) sink += score->correlation;
          if (online.memory_doubles() != expected) memory_ok = false;
        }
        const auto t1 = clock::now();
        const double ns =
            std::chrono::duration<double, std::nano>(t1 - t0).count() /
            static_cast<double>(bins);
        std::printf("%8d %10zu %12zu %14zu %12.1f\n", degree, max_offset,
                    bins, online.memory_doubles(), ns);
        if (sink == -1.0) std::printf("%f\n", sink);
      }
    }
    if (!memory_ok) {
      std::printf("A-STREAM FAILED: despreader state grew during the "
                  "stream\n");
      return 1;
    }
  }

  // Gate 3: the legal gate holds.  A court order admits non-content
  // rate collection; the same order does NOT admit a content grab.
  {
    const auto code = PnCode::m_sequence(6).value();
    const CorrelationKernel kernel(code);

    lexfor::legal::LegalProcess order;
    order.kind = lexfor::legal::ProcessKind::kCourtOrder;
    order.scope.data_kinds = {lexfor::legal::DataKind::kAddressing};
    order.issued_at = lexfor::SimTime::zero();
    order.validity = lexfor::SimDuration::from_sec(30 * 24 * 3600.0);

    lexfor::stream::TapSessionConfig cfg;
    cfg.scenario = lexfor::legal::Scenario{}
                       .named("streaming rate collection")
                       .by(lexfor::legal::ActorKind::kLawEnforcement)
                       .acquiring(lexfor::legal::DataKind::kAddressing)
                       .located(lexfor::legal::DataState::kInTransit)
                       .when(lexfor::legal::Timing::kRealTime);
    cfg.authority = lexfor::legal::GrantedAuthority{order};
    cfg.target = lexfor::NodeId{1};
    cfg.ring.start = lexfor::SimTime::zero();
    cfg.ring.bin_width = lexfor::SimDuration::from_ms(400.0);
    cfg.ring.capacity = 128;

    const auto admitted =
        lexfor::stream::TapSession::create(kernel, cfg);
    auto content_cfg = cfg;
    content_cfg.scenario =
        content_cfg.scenario.acquiring(lexfor::legal::DataKind::kContent);
    const auto refused =
        lexfor::stream::TapSession::create(kernel, content_cfg);

    std::printf("\nlegal gate: court-order rate tap %s, content grab %s\n",
                admitted.ok() ? "admitted" : "REFUSED",
                refused.ok() ? "ADMITTED" : "refused");
    if (!admitted.ok() || refused.ok()) {
      std::printf("A-STREAM FAILED: admission gate gave the wrong answer\n");
      return 1;
    }
  }

  // Gate 4: the streaming traceback against the per-flow composition.
  // Every flow's correlation, threshold and decision must match bit for
  // bit; one shared simulation pass and the tap fan-out may change
  // where the work happens, never a verdict.
  {
    std::printf("\nstreaming traceback vs per-flow composition\n");
    std::printf("%8s %12s %14s\n", "suspects", "identical", "single ms");
    bool identical = true;
    for (const std::size_t decoys : {std::size_t{3}, std::size_t{8}}) {
      lexfor::tornet::TracebackConfig cfg;
      cfg.pn_degree = 8;
      cfg.chip_ms = 400.0;
      cfg.depth = 0.35;
      cfg.base_rate_pps = 120.0;
      cfg.num_decoys = decoys;
      cfg.seed = 424242;

      lexfor::tornet::TracebackResult single;
      const double single_ms = time_ms([&] {
        single = lexfor::tornet::run_streaming_traceback(cfg).value();
      });
      const auto composed = composed_traceback(cfg);

      bool same = single.flows.size() == composed.size();
      for (std::size_t i = 0; same && i < composed.size(); ++i) {
        const auto& got = single.flows[i].detection;
        same = std::bit_cast<std::uint64_t>(got.correlation) ==
                   std::bit_cast<std::uint64_t>(composed[i].correlation) &&
               std::bit_cast<std::uint64_t>(got.threshold) ==
                   std::bit_cast<std::uint64_t>(composed[i].threshold) &&
               got.detected == composed[i].detected;
      }
      identical = identical && same;
      std::printf("%8zu %12s %14.1f\n", decoys + 1, same ? "yes" : "NO",
                  single_ms);
      std::printf("A-STREAM-METRIC single_pass_%zu_suspects_ms %.1f\n",
                  decoys + 1, single_ms);
    }
    if (!identical) {
      std::printf("A-STREAM FAILED: streaming traceback verdicts diverged "
                  "from the per-flow composition\n");
      return 1;
    }
  }

  // The traceback at the default config (degree 9, suspect + 8
  // decoys): the composition flow after flow, then the fused per-flow
  // pass on one thread and fanned across every core.  The split shows
  // which of the two the gain comes from.  Reported, not gated.
  {
    constexpr int kReps = 15;
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    const lexfor::tornet::TracebackConfig cfg;
    auto one = cfg;
    one.detect_threads = 1;
    auto all = cfg;
    all.detect_threads = 0;

    // Interleaved, so a change in host speed hits all three alike.
    std::vector<double> composed, fused_one, fused_all;
    for (int r = 0; r < kReps; ++r) {
      composed.push_back(time_ms([&] { (void)composed_traceback(cfg); }));
      fused_one.push_back(time_ms(
          [&] { (void)lexfor::tornet::run_streaming_traceback(one); }));
      fused_all.push_back(time_ms(
          [&] { (void)lexfor::tornet::run_streaming_traceback(all); }));
    }
    const double composed_ms = median(composed);
    const double one_ms = median(fused_one);
    const double all_ms = median(fused_all);
    std::printf("\ntraceback at the default config, median of %d (%u cores)\n",
                kReps, cores);
    std::printf("  composition, flow after flow      %8.2f ms\n", composed_ms);
    std::printf("  fused pass, detect_threads 1      %8.2f ms  (%.2fx)\n",
                one_ms, composed_ms / one_ms);
    std::printf("  fused pass, detect_threads 0 (%u)  %8.2f ms  (%.2fx; "
                "fan-out %.2fx)\n",
                cores, all_ms, composed_ms / all_ms, one_ms / all_ms);
    std::printf("A-STREAM-METRIC traceback_composed_ms %.2f\n", composed_ms);
    std::printf("A-STREAM-METRIC traceback_fused_1_thread_ms %.2f\n", one_ms);
    std::printf("A-STREAM-METRIC traceback_fused_all_threads_ms %.2f\n",
                all_ms);
    std::printf("A-STREAM-METRIC traceback_cores %u\n", cores);
  }

  std::printf("\nA-STREAM OK: bit-identical verdicts, flat memory, "
              "admission gate enforced, streaming traceback == per-flow "
              "composition\n");
  return 0;
}
