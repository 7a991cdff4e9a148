// traceback and multiflow_scan: one investigator runs one case at a time
// (closed loop), each case seeded from the workload seed and its index.
//
//   traceback       tornet::run_streaming_traceback at the default
//                   TracebackConfig: a degree-9 m-sequence, the suspect
//                   plus 8 decoys.  Flow generation dominates.
//   multiflow_scan  one observed flow marked with a random account's
//                   degree-9 Gold code from a random unknown offset in
//                   [0, 255] chips, carried through the anonymity network
//                   and scanned by one watermark::ScanBatch (one worker)
//                   under 129 account codes x 256 offsets.  The scan
//                   dominates.
//
// The traced run cannot open spans inside run_streaming_traceback, so it
// calls the same public layer functions itself, in the same order and
// with the same per-flow Rng::sub_stream seeding, and its verdicts are
// checked bit for bit against the untraced run's.

#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "legal/batch.h"
#include "legal/engine.h"
#include "measure.h"
#include "stream/tap_registry.h"
#include "tornet/anonymity_network.h"
#include "tornet/traceback.h"
#include "trace.h"
#include "util/rng.h"
#include "watermark/correlate.h"
#include "watermark/dsss.h"
#include "watermark/gold_code.h"
#include "watermark/pn_code.h"
#include "watermark/scan_batch.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace legal = lexfor::legal;
namespace stream = lexfor::stream;
namespace tornet = lexfor::tornet;
namespace watermark = lexfor::watermark;
using lexfor::Rng;
using lexfor::SimDuration;
using lexfor::SimTime;

constexpr std::uint64_t kWarmupCases = 2;
constexpr std::size_t kWindowCases = 16;    // cases per throughput window
constexpr std::size_t kSegmentCases = 100;  // cases per percentile segment

// Case i's seed; warm-up cases use indices past any measured case.
[[nodiscard]] std::uint64_t case_seed(std::uint64_t seed, std::uint64_t i) {
  return mix64(seed ^ mix64(i));
}
constexpr std::uint64_t kWarmupIndex = std::uint64_t{1} << 62;

// Where the observation window starts: the expected circuit delay, as
// tornet's own traceback computes it.
[[nodiscard]] double expected_shift_sec(const tornet::TorConfig& net) {
  return static_cast<double>(net.circuit_length) *
         (net.hop_latency_ms + net.relay_jitter_ms + net.relay_batch_ms / 2.0) *
         1e-3;
}

struct CaseTimes {
  std::vector<double> ms;

  void add(std::int64_t ns) { ms.push_back(static_cast<double>(ns) / 1e6); }
  // Cases per second over windows of kWindowCases cases.
  [[nodiscard]] double rate() const {
    std::vector<double> windows;
    for (std::size_t i = 0; i + kWindowCases <= ms.size(); i += kWindowCases) {
      double sum = 0.0;
      for (std::size_t k = i; k < i + kWindowCases; ++k) sum += ms[k];
      windows.push_back(1e3 * static_cast<double>(kWindowCases) / sum);
    }
    return interquartile_mean(windows);
  }
  // Percentile p of case time per segment of kSegmentCases consecutive
  // cases, combined over segments; each segment's p90 leaves 10 cases
  // beyond it.  All cases form one segment when there are fewer.
  [[nodiscard]] double segmented(std::uint32_t p) const {
    if (ms.size() < kSegmentCases) return percentile(ms, p);
    std::vector<double> per_segment;
    for (std::size_t i = 0; i + kSegmentCases <= ms.size();
         i += kSegmentCases) {
      const auto from = ms.begin() + static_cast<std::ptrdiff_t>(i);
      per_segment.push_back(percentile(
          std::vector<double>(from, from + kSegmentCases), p));
    }
    return interquartile_mean(per_segment);
  }
};

void print_cases(const char* what, const CaseTimes& t) {
  const std::uint32_t top = highest_reportable_percentile(t.ms.size());
  std::printf(
      "%s: %zu cases, case_p50_ms %.4f, case_p90_ms %.4f (over segments of "
      "%zu); over all cases p50 %.4f ms, p90 %.4f ms and, the highest "
      "percentile with >= 10 cases beyond it, p%.3f = %.4f ms\n",
      what, t.ms.size(), t.segmented(50000), t.segmented(90000),
      kSegmentCases, percentile(t.ms, 50000), percentile(t.ms, 90000),
      top / 1000.0, percentile(t.ms, top));
}

void end_to_end(Outcome& out, const std::vector<double>& setups,
                const CaseTimes& t) {
  out.metrics["setup_s"] = median(setups);
  out.metrics["peak_rss_mib"] = peak_rss_mib();
  out.metrics["throughput_per_s"] = t.rate();
  out.metrics["latency_p50_us"] = t.segmented(50000) * 1e3;
}

// Per-case layer totals from the traced run's spans.
struct CaseLayers {
  std::map<std::string, LayerTotals> by_name;
  double coverage = 0.0;  // share of case time under a layer span

  explicit CaseLayers(const Tracer& tracer)
      : by_name(totals_by_name(tracer.spans())) {
    const auto it = by_name.find("case");
    if (it != by_name.end() && it->second.total_ns > 0) {
      coverage = 1.0 - static_cast<double>(it->second.self_ns) /
                           static_cast<double>(it->second.total_ns);
    }
  }
  // Self time of `name` per case, in ns.
  [[nodiscard]] double per_case_ns(const char* name, std::size_t cases) const {
    const auto it = by_name.find(name);
    return it == by_name.end() || cases == 0
               ? 0.0
               : static_cast<double>(it->second.self_ns) /
                     static_cast<double>(cases);
  }
};

// --- traceback ------------------------------------------------------------

[[nodiscard]] bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

[[nodiscard]] bool same_verdicts(const tornet::TracebackResult& a,
                                 const tornet::TracebackResult& b) {
  if (a.flows.size() != b.flows.size()) return false;
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const auto& x = a.flows[i].detection;
    const auto& y = b.flows[i].detection;
    if (a.flows[i].is_suspect != b.flows[i].is_suspect ||
        x.detected != y.detected || !same_bits(x.correlation, y.correlation) ||
        !same_bits(x.threshold, y.threshold)) {
      return false;
    }
  }
  return a.collection_legality.required_process ==
         b.collection_legality.required_process;
}

// The oracle: ground truth (suspect found, no decoy flagged) and the
// §IV.B posture (a court order suffices for rate collection).
void check_traceback(const lexfor::Result<tornet::TracebackResult>& r,
                     std::size_t flows, std::uint64_t op, Outcome& out) {
  if (!r.ok()) {
    out.fail(op, "traceback returned an error: " + r.status().message());
    return;
  }
  const tornet::TracebackResult& t = r.value();
  if (t.flows.size() != flows) {
    out.fail(op, "traceback returned " + std::to_string(t.flows.size()) +
                     " flow verdicts");
  } else if (!t.suspect_detected) {
    out.fail(op, "suspect not detected");
  } else if (t.decoys_flagged != 0) {
    out.fail(op, std::to_string(t.decoys_flagged) + " decoy(s) flagged");
  } else if (!t.collection_legality.needs_process ||
             t.collection_legality.required_process !=
                 legal::ProcessKind::kCourtOrder) {
    out.fail(op, "collection posture is not a court order");
  }
}

// The pen/trap-style court order the streaming taps are admitted under
// (the authority run_streaming_traceback constructs internally).
[[nodiscard]] legal::GrantedAuthority court_order() {
  legal::LegalProcess order;
  order.kind = legal::ProcessKind::kCourtOrder;
  order.scope.data_kinds = {legal::DataKind::kAddressing};
  order.issued_at = SimTime::zero();
  order.validity = SimDuration::from_sec(30.0 * 24.0 * 3600.0);
  return legal::GrantedAuthority{order};
}

// run_streaming_traceback, spelled out through the same public layer
// functions with a span around each call.
lexfor::Result<tornet::TracebackResult> traced_traceback(
    const tornet::TracebackConfig& config, Tracer& tracer, std::uint64_t id,
    std::uint64_t& packets) {
  const Tracer::Scope root(&tracer, "case", id);
  tornet::TracebackResult result;
  std::optional<watermark::CorrelationKernel> kernel;
  std::optional<watermark::Embedder> embedder;
  const double chip_sec = config.chip_ms * 1e-3;
  {
    const Tracer::Scope span(&tracer, "watermark.kernel", id);
    auto code = watermark::PnCode::m_sequence(config.pn_degree);
    if (!code.ok()) return code.status();
    watermark::EmbedParams params;
    params.start = SimTime::zero();
    params.chip_duration = SimDuration::from_ms(config.chip_ms);
    params.depth = config.depth;
    embedder.emplace(code.value(), params);
    kernel.emplace(std::move(code).value(), config.threshold_sigmas);
  }
  {
    const Tracer::Scope span(&tracer, "legal.collection", id);
    result.collection_legality =
        legal::ComplianceEngine{}.evaluate(tornet::collection_scenario());
  }
  const std::size_t n_chips = kernel->length();
  const std::size_t num_flows = 1 + config.num_decoys;
  const double t_end = chip_sec * static_cast<double>(n_chips) + 2.0;
  const double shift = expected_shift_sec(config.network);
  const tornet::AnonymityNetwork net(config.network);
  std::vector<double> rates(num_flows * n_chips);
  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    Rng rng = Rng::sub_stream(config.seed, flow);
    std::optional<lexfor::Result<tornet::Circuit>> circuit;
    {
      const Tracer::Scope span(&tracer, "tornet.circuit", id);
      circuit.emplace(net.build_circuit(rng));
    }
    if (!circuit->ok()) return circuit->status();
    std::vector<double> sends;
    {
      const Tracer::Scope span(&tracer, "tornet.synth", id);
      std::function<double(double)> mult;
      if (flow == 0) {
        mult = [&embedder](double t) {
          return embedder->multiplier(SimTime::from_sec(t));
        };
      }
      sends = tornet::generate_modulated_poisson(
          config.base_rate_pps, t_end, 1.0 + config.depth, mult, rng);
    }
    packets += sends.size();
    std::vector<double> arrivals;
    {
      const Tracer::Scope span(&tracer, "tornet.transit", id);
      arrivals = net.transit(circuit->value(), sends, rng);
    }
    {
      const Tracer::Scope span(&tracer, "tornet.bin", id);
      const auto bins =
          tornet::bin_arrivals(arrivals, shift, chip_sec, n_chips);
      for (std::size_t i = 0; i < n_chips; ++i) {
        rates[flow * n_chips + i] = static_cast<double>(bins[i]);
      }
    }
  }
  {
    const Tracer::Scope span(&tracer, "stream.tap", id);
    stream::TapRegistry registry;
    for (std::size_t flow = 0; flow < num_flows; ++flow) {
      stream::TapSessionConfig tap;
      tap.scenario = tornet::collection_scenario();
      tap.authority = court_order();
      tap.target = lexfor::NodeId{static_cast<std::uint32_t>(flow + 1)};
      tap.ring.start = SimTime::zero();
      tap.ring.bin_width = SimDuration::from_ms(config.chip_ms);
      tap.ring.capacity = n_chips;
      tap.max_offset = 0;
      const auto added = registry.add_tap(*kernel, tap);
      if (!added.ok()) return added.status();
    }
    for (std::size_t i = 0; i < n_chips; ++i) {
      for (std::size_t flow = 0; flow < num_flows; ++flow) {
        registry.feed_bin(flow, rates[flow * n_chips + i]);
      }
    }
    for (std::size_t flow = 0; flow < num_flows; ++flow) {
      tornet::FlowVerdict v;
      v.is_suspect = flow == 0;
      v.detection = registry.tap(flow).verdict().scan.best;
      result.flows.push_back(v);
      if (v.is_suspect) {
        result.suspect_detected = v.detection.detected;
        result.suspect_correlation = v.detection.correlation;
      } else if (v.detection.detected) {
        ++result.decoys_flagged;
      }
    }
  }
  return result;
}

// --- multiflow_scan -------------------------------------------------------

constexpr std::size_t kAccounts = 129;
constexpr std::size_t kMaxOffset = 255;

// Set-up state: the Gold family, one kernel per account and the ScanBatch,
// reused by every case.  The batch runs one worker rather than the default
// hardware concurrency: on a shared 4-vCPU VM, case times varied by about
// 30% between identical runs with four workers and 20% with two, against
// about 10% with one.
struct ScanRig {
  std::vector<watermark::CorrelationKernel> kernels;
  watermark::ScanBatch batch{watermark::ScanBatchOptions{1}};
  tornet::MultiflowConfig config;  // chip, depth, rate, threshold defaults
  std::optional<watermark::GoldCodeFamily> family;
};

struct ScanOutcome {
  std::size_t account = 0;
  std::size_t offset = 0;
  bool detected = false;
};

lexfor::Result<ScanOutcome> scan_case(const ScanRig& rig, std::uint64_t seed,
                                      Tracer* tracer, std::uint64_t id,
                                      std::size_t account, std::size_t offset,
                                      std::uint64_t& packets) {
  const Tracer::Scope root(tracer, "case", id);
  const tornet::MultiflowConfig& c = rig.config;
  const std::size_t n_bins = rig.kernels.front().length() + kMaxOffset;
  const double chip_sec = c.chip_ms * 1e-3;
  const double t_end = chip_sec * static_cast<double>(n_bins) + 2.0;
  const tornet::AnonymityNetwork net(c.network);
  Rng rng(seed);

  watermark::EmbedParams params;
  params.chip_duration = SimDuration::from_ms(c.chip_ms);
  params.start = SimTime::zero() +
                 params.chip_duration * static_cast<std::int64_t>(offset);
  params.depth = c.depth;
  const watermark::Embedder embedder(rig.family->code(account), params);

  std::optional<lexfor::Result<tornet::Circuit>> circuit;
  {
    const Tracer::Scope span(tracer, "tornet.circuit", id);
    circuit.emplace(net.build_circuit(rng));
  }
  if (!circuit->ok()) return circuit->status();
  std::vector<double> sends;
  {
    const Tracer::Scope span(tracer, "tornet.synth", id);
    sends = tornet::generate_modulated_poisson(
        c.base_rate_pps, t_end, 1.0 + c.depth,
        [&embedder](double t) {
          return embedder.multiplier(SimTime::from_sec(t));
        },
        rng);
  }
  packets += sends.size();
  std::vector<double> arrivals;
  {
    const Tracer::Scope span(tracer, "tornet.transit", id);
    arrivals = net.transit(circuit->value(), sends, rng);
  }
  std::vector<double> rates(n_bins);
  {
    const Tracer::Scope span(tracer, "tornet.bin", id);
    const auto bins = tornet::bin_arrivals(
        arrivals, expected_shift_sec(c.network), chip_sec, n_bins);
    for (std::size_t i = 0; i < n_bins; ++i) {
      rates[i] = static_cast<double>(bins[i]);
    }
  }
  std::vector<lexfor::Result<watermark::ScanResult>> found;
  {
    const Tracer::Scope span(tracer, "watermark.scan", id);
    std::vector<watermark::ScanJob> jobs(rig.kernels.size());
    for (std::size_t a = 0; a < jobs.size(); ++a) {
      jobs[a].kernel = &rig.kernels[a];
      jobs[a].rates = rates;
      jobs[a].max_offset = kMaxOffset;
    }
    found = rig.batch.run(jobs);
  }
  ScanOutcome best;
  double best_corr = -2.0;
  for (std::size_t a = 0; a < found.size(); ++a) {
    if (!found[a].ok()) return found[a].status();
    const watermark::ScanResult& s = found[a].value();
    if (s.best.correlation > best_corr) {
      best_corr = s.best.correlation;
      best = ScanOutcome{a, s.offset, s.best.detected};
    }
  }
  return best;
}

[[nodiscard]] std::unique_ptr<ScanRig> set_up_scan(std::uint64_t seed) {
  auto rig = std::make_unique<ScanRig>();
  auto family = watermark::GoldCodeFamily::create(rig->config.gold_degree);
  if (!family.ok()) return nullptr;
  rig->family.emplace(std::move(family).value());
  rig->kernels.reserve(kAccounts);
  for (std::size_t a = 0; a < kAccounts; ++a) {
    rig->kernels.emplace_back(rig->family->code(a),
                              rig->config.threshold_sigmas);
  }
  std::uint64_t packets = 0;
  for (std::uint64_t i = 0; i < kWarmupCases; ++i) {
    const std::uint64_t s = case_seed(seed, kWarmupIndex + i);
    (void)scan_case(*rig, s, nullptr, i, mix64(s) % kAccounts,
                    mix64(s + 1) % (kMaxOffset + 1), packets);
  }
  return rig;
}

}  // namespace

void run_traceback(const RunOptions& options, Outcome& out) {
  const tornet::TracebackConfig defaults;
  const std::size_t flows = 1 + defaults.num_decoys;
  const auto config_for = [&](std::uint64_t i) {
    tornet::TracebackConfig c = defaults;
    c.seed = case_seed(options.seed, i);
    return c;
  };

  std::vector<double> setups;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const std::int64_t t0 = now_ns();
    legal::shared_verdict_cache().clear();
    for (std::uint64_t i = 0; i < kWarmupCases; ++i) {
      (void)tornet::run_streaming_traceback(config_for(kWarmupIndex + i));
    }
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  const double budget = options.trace ? 0.5 * options.seconds : options.seconds;
  CaseTimes plain;
  std::vector<tornet::TracebackResult> verdicts;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(budget * 1e9);
  for (std::uint64_t i = 0; now_ns() < end; ++i) {
    const tornet::TracebackConfig c = config_for(i);
    const std::int64_t t0 = now_ns();
    auto r = tornet::run_streaming_traceback(c);
    plain.add(now_ns() - t0);
    out.attempt();
    check_traceback(r, flows, i, out);
    if (options.trace) {
      verdicts.push_back(r.ok() ? std::move(r).value()
                                : tornet::TracebackResult{});
    }
  }
  print_cases("traceback (run_streaming_traceback)", plain);

  if (!options.trace) {
    end_to_end(out, setups, plain);
    return;
  }

  // Traced run: the same cases again, through the spelled-out pipeline.
  Tracer tracer;
  CaseTimes traced;
  std::uint64_t packets = 0;
  for (std::uint64_t i = 0; i < verdicts.size(); ++i) {
    const std::int64_t t0 = now_ns();
    const auto r = traced_traceback(config_for(i), tracer, i, packets);
    traced.add(now_ns() - t0);
    out.attempt();
    check_traceback(r, flows, i, out);
    if (r.ok() && !same_verdicts(r.value(), verdicts[i])) {
      out.fail(i, "traced verdicts differ from run_streaming_traceback's");
    }
  }
  print_cases("traceback (traced layer calls)", traced);

  const CaseLayers layers(tracer);
  const std::size_t n = traced.ms.size();
  auto& m = out.metrics;
  m["tornet.circuit_us"] = layers.per_case_ns("tornet.circuit", n) / 1e3;
  m["tornet.synth_ms"] = layers.per_case_ns("tornet.synth", n) / 1e6;
  m["tornet.transit_ms"] = layers.per_case_ns("tornet.transit", n) / 1e6;
  m["tornet.bin_ms"] = layers.per_case_ns("tornet.bin", n) / 1e6;
  m["tornet.packets"] =
      n ? static_cast<double>(packets) / static_cast<double>(n) : 0.0;
  m["stream.tap_us"] = layers.per_case_ns("stream.tap", n) / 1e3;
  m["legal.evaluate_us"] = layers.per_case_ns("legal.collection", n) / 1e3;
  m["traceback.coverage"] = layers.coverage;
  const double p50_plain = plain.segmented(50000);
  m["trace.overhead"] =
      p50_plain > 0 ? traced.segmented(50000) / p50_plain : 0.0;
  std::printf(
      "traced: %zu spans, coverage %.4f, watermark.kernel %.2f us/case\n",
      tracer.spans().size(), layers.coverage,
              layers.per_case_ns("watermark.kernel", n) / 1e3);
  if (!options.trace_out.empty() &&
      !tracer.write_chrome_json(options.trace_out)) {
    out.fail(0, "could not write spans to " + options.trace_out);
  }
}

void run_multiflow_scan(const RunOptions& options, Outcome& out) {
  std::vector<double> setups;
  std::unique_ptr<ScanRig> rig;
  for (int r = 0; r < kSetupRepeats; ++r) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = set_up_scan(options.seed);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!rig) {
      out.fail(0, "GoldCodeFamily::create failed");
      return;
    }
  }
  const unsigned threads = resolve_threads(rig->batch.threads());
  std::printf("scan: %zu account codes x %zu offsets, %u ScanBatch threads\n",
              kAccounts, kMaxOffset + 1, threads);

  const auto run_cases = [&](double seconds, std::uint64_t count,
                             Tracer* tracer, CaseTimes& times,
                             std::uint64_t& packets) {
    const std::int64_t end =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::uint64_t i = 0; count ? i < count : now_ns() < end; ++i) {
      const std::uint64_t s = case_seed(options.seed, i);
      const std::size_t account = mix64(s) % kAccounts;
      const std::size_t offset = mix64(s + 1) % (kMaxOffset + 1);
      const std::int64_t t0 = now_ns();
      const auto r = scan_case(*rig, s, tracer, i, account, offset, packets);
      times.add(now_ns() - t0);
      out.attempt();
      if (!r.ok()) {
        out.fail(i, "scan case returned an error: " + r.status().message());
      } else if (r.value().account != account || r.value().offset != offset ||
                 !r.value().detected) {
        out.fail(i, "planted account " + std::to_string(account) +
                        " at offset " + std::to_string(offset) + ", found " +
                        std::to_string(r.value().account) + " at " +
                        std::to_string(r.value().offset) +
                        (r.value().detected ? "" : " below threshold"));
      }
    }
  };

  CaseTimes plain;
  std::uint64_t plain_packets = 0;
  run_cases(options.trace ? 0.5 * options.seconds : options.seconds, 0,
            nullptr, plain, plain_packets);
  print_cases("multiflow_scan", plain);
  if (!options.trace) {
    end_to_end(out, setups, plain);
    return;
  }

  Tracer tracer;
  CaseTimes traced;
  std::uint64_t packets = 0;
  run_cases(0.0, plain.ms.size(), &tracer, traced, packets);
  print_cases("multiflow_scan (traced)", traced);

  const CaseLayers layers(tracer);
  const std::size_t n = traced.ms.size();
  auto& m = out.metrics;
  m["tornet.circuit_us"] = layers.per_case_ns("tornet.circuit", n) / 1e3;
  m["tornet.synth_ms"] = layers.per_case_ns("tornet.synth", n) / 1e6;
  m["tornet.transit_ms"] = layers.per_case_ns("tornet.transit", n) / 1e6;
  m["tornet.bin_ms"] = layers.per_case_ns("tornet.bin", n) / 1e6;
  m["tornet.packets"] =
      n ? static_cast<double>(packets) / static_cast<double>(n) : 0.0;
  const double scan_ns = layers.per_case_ns("watermark.scan", n);
  m["watermark.scan_ms"] = scan_ns / 1e6;
  m["watermark.ns_per_offset"] =
      scan_ns / static_cast<double>(kAccounts * (kMaxOffset + 1));
  m["watermark.threads"] = threads;
  m["multiflow_scan.coverage"] = layers.coverage;
  const double p50_plain = plain.segmented(50000);
  m["trace.overhead"] =
      p50_plain > 0 ? traced.segmented(50000) / p50_plain : 0.0;
  std::printf("traced: %zu spans, coverage %.4f\n", tracer.spans().size(),
              layers.coverage);
  if (!options.trace_out.empty() &&
      !tracer.write_chrome_json(options.trace_out)) {
    out.fail(0, "could not write spans to " + options.trace_out);
  }
}

}  // namespace perfbench
