#include "tornet/traceback.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <string>

#include "stream/tap_registry.h"
#include "util/thread_pool.h"
#include "watermark/dsss.h"
#include "watermark/gold_code.h"
#include "watermark/scan_batch.h"

namespace lexfor::tornet {

legal::Scenario collection_scenario() {
  // Collecting per-flow packet counts at the ISP touches only
  // addressing/size information in real time: Pen/Trap territory, a
  // court order suffices (paper §IV.B: "they do not need to collect the
  // entire packet, so they do not need a wiretap warrant").
  return legal::Scenario{}
      .named("non-content rate collection at the suspect's ISP")
      .by(legal::ActorKind::kLawEnforcement)
      .acquiring(legal::DataKind::kAddressing)
      .located(legal::DataState::kInTransit)
      .when(legal::Timing::kRealTime);
}

namespace {

// A chip must last at least one microsecond: the embedder finds a
// send's chip by dividing by the chip duration in whole microseconds.
// It must be finite before it is converted to them.
Status check_chip_ms(double chip_ms, const char* caller) {
  if (!std::isfinite(chip_ms) || SimDuration::from_ms(chip_ms).us < 1) {
    return InvalidArgument(std::string(caller) +
                           ": chip_ms must be at least 0.001 (1 us)");
  }
  return Status::Ok();
}

// The flow's rate and modulation depth must be finite: the simulation
// draws nothing for a non-finite peak rate, so such a flow would be
// silently empty.
Status check_flow_rate(double base_rate_pps, double depth,
                       const char* caller) {
  if (!std::isfinite(base_rate_pps) || !std::isfinite(depth)) {
    return InvalidArgument(std::string(caller) +
                           ": base_rate_pps and depth must be finite");
  }
  return Status::Ok();
}

// Phase 1 of the experiment: simulate the suspect and decoy flows
// through the anonymity network and bin the ISP-side arrivals into one
// flat rate buffer, flow f's n_chips bins at rates[f * n_chips]
// (suspect first).  Flow f draws exclusively from
// Rng::sub_stream(config.seed, f), so its bins do not depend on how
// many other flows exist or which thread runs it — that is what makes
// every detect_threads setting produce bit-identical series.
//
// Circuits are built first, on the calling thread and in flow order, so
// circuit ids follow flow order and a failure is the first failing
// flow's.  Each flow then runs simulate_flow_bins (bit-identical to
// generate_modulated_poisson -> transit -> bin_arrivals) across
// config.detect_threads threads, writing only its own slice.
Status simulate_flow_rates(const TracebackConfig& config,
                           const watermark::PnCode& code,
                           std::vector<double>& rates) {
  const std::size_t n_chips = code.length();
  const double chip_sec = config.chip_ms * 1e-3;
  // Generate past the code window so late (jittered) packets still land
  // in their chip bins.
  const double t_end = chip_sec * static_cast<double>(n_chips) + 2.0;

  watermark::EmbedParams embed_params;
  embed_params.start = SimTime::zero();
  embed_params.chip_duration = SimDuration::from_ms(config.chip_ms);
  embed_params.depth = config.depth;
  const watermark::Embedder embedder(code, embed_params);

  const AnonymityNetwork net(config.network);
  const double expected_shift_sec = expected_circuit_shift_sec(config.network);

  struct FlowStart {
    Circuit circuit;
    Rng rng;  // the flow's stream, just past its circuit draws
  };
  const std::size_t num_flows = 1 + config.num_decoys;
  std::vector<FlowStart> starts;
  starts.reserve(num_flows);
  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    Rng flow_rng = Rng::sub_stream(config.seed, flow);
    auto circuit_r = net.build_circuit(flow_rng);
    if (!circuit_r.ok()) return circuit_r.status();
    starts.push_back(FlowStart{std::move(circuit_r).value(), flow_rng});
  }

  rates.resize(num_flows * n_chips);
  const unsigned width = util::resolve_width(config.detect_threads);
  util::parallel_for(num_flows, width, [&](std::size_t i) {
    FlowStart& f = starts[i];
    const std::span<double> out(rates.data() + i * n_chips, n_chips);
    // The suspect's flow (flow 0) carries the mark.
    simulate_flow_bins(net, f.circuit, config.base_rate_pps, t_end,
                       1.0 + config.depth, i == 0 ? &embedder : nullptr,
                       expected_shift_sec, chip_sec, out, f.rng);
  });
  return Status::Ok();
}

// The court order the streaming taps are admitted under: pen/trap-style
// authority over addressing data, issued when collection starts, valid
// well past the observation window.  Matches the §IV.B posture the
// collection_scenario() evaluation determines is required.
legal::GrantedAuthority streaming_tap_authority() {
  legal::LegalProcess order;
  order.kind = legal::ProcessKind::kCourtOrder;
  order.scope.data_kinds = {legal::DataKind::kAddressing};
  order.issued_at = SimTime::zero();
  order.validity = SimDuration::from_sec(30.0 * 24.0 * 3600.0);
  return legal::GrantedAuthority{order};
}

// Folds one flow's detection into the shared result summary.
void accumulate_flow_verdict(TracebackResult& result, std::size_t flow,
                             const watermark::DetectionResult& detection) {
  FlowVerdict v;
  v.is_suspect = flow == 0;
  v.detection = detection;
  result.flows.push_back(v);
  if (v.is_suspect) {
    result.suspect_detected = v.detection.detected;
    result.suspect_correlation = v.detection.correlation;
  } else {
    if (v.detection.detected) ++result.decoys_flagged;
    result.max_decoy_correlation =
        std::max(result.max_decoy_correlation, v.detection.correlation);
  }
}

}  // namespace

Result<TracebackResult> run_streaming_traceback(const TracebackConfig& config) {
  const Status chip = check_chip_ms(config.chip_ms, "run_streaming_traceback");
  if (!chip.ok()) return chip;
  const Status rate = check_flow_rate(config.base_rate_pps, config.depth,
                                      "run_streaming_traceback");
  if (!rate.ok()) return rate;
  auto code_r = watermark::PnCode::m_sequence(config.pn_degree);
  if (!code_r.ok()) return code_r.status();
  const watermark::PnCode code = std::move(code_r).value();
  const std::size_t n_chips = code.length();

  TracebackResult result;
  result.collection_legality =
      legal::ComplianceEngine{}.evaluate(collection_scenario());

  const std::size_t num_flows = 1 + config.num_decoys;
  const watermark::CorrelationKernel kernel(code, config.threshold_sigmas);

  // Simulate every flow once...
  std::vector<double> rates;
  const Status sim = simulate_flow_rates(config, code, rates);
  if (!sim.ok()) return sim;

  // ...then tap every candidate through one TapRegistry.  Each tap is
  // admitted per suspect — the §IV.B collection posture, evaluated
  // through the shared verdict cache under a court order — before its
  // ring or window exists.  max_offset 0 is aligned detection: the
  // investigator controls the embed start, so the plain threshold
  // applies (a Bonferroni factor of k = 1).
  stream::TapRegistry registry;
  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    stream::TapSessionConfig tap_cfg;
    tap_cfg.scenario = collection_scenario();
    tap_cfg.authority = streaming_tap_authority();
    tap_cfg.target = NodeId{static_cast<std::uint32_t>(flow + 1)};
    tap_cfg.ring.start = SimTime::zero();
    tap_cfg.ring.bin_width = SimDuration::from_ms(config.chip_ms);
    tap_cfg.ring.capacity = n_chips;
    tap_cfg.max_offset = 0;
    const auto tap = registry.add_tap(kernel, tap_cfg);
    if (!tap.ok()) return tap.status();
  }

  // Fan the pass's bins out: bin-major feed order (every tap sees bin i
  // before any tap sees bin i+1), the order one shared collection clock
  // would deliver them.  Per-flow verdicts cannot depend on the
  // interleaving — each despreader only reads its own window.
  for (std::size_t i = 0; i < n_chips; ++i) {
    for (std::size_t flow = 0; flow < num_flows; ++flow) {
      registry.feed_bin(flow, rates[flow * n_chips + i]);
    }
  }

  for (std::size_t flow = 0; flow < num_flows; ++flow) {
    accumulate_flow_verdict(result, flow,
                            registry.tap(flow).verdict().scan.best);
  }
  return result;
}

Result<MultiflowResult> run_multiflow_traceback(const MultiflowConfig& config) {
  if (config.true_account >= config.num_accounts) {
    return InvalidArgument(
        "run_multiflow_traceback: true_account out of range");
  }
  const Status chip = check_chip_ms(config.chip_ms, "run_multiflow_traceback");
  if (!chip.ok()) return chip;
  const Status rate = check_flow_rate(config.base_rate_pps, config.depth,
                                      "run_multiflow_traceback");
  if (!rate.ok()) return rate;
  auto family_r = watermark::GoldCodeFamily::create(config.gold_degree);
  if (!family_r.ok()) return family_r.status();
  const watermark::GoldCodeFamily family = std::move(family_r).value();
  if (config.num_accounts > family.size()) {
    return InvalidArgument(
        "run_multiflow_traceback: more accounts than Gold codes in the "
        "family");
  }

  const std::size_t n_chips = family.code_length();
  const double chip_sec = config.chip_ms * 1e-3;
  const double t_end = chip_sec * static_cast<double>(n_chips) + 2.0;

  const AnonymityNetwork net(config.network);
  Rng rng(config.seed);

  // The observed client carries the flow marked with the TRUE account's
  // code.  (The other accounts' flows go to other clients; since flows
  // are independent Poisson processes, simulating them would not change
  // what this client's tap sees.)
  watermark::EmbedParams embed_params;
  embed_params.start = SimTime::zero();
  embed_params.chip_duration = SimDuration::from_ms(config.chip_ms);
  embed_params.depth = config.depth;
  const watermark::Embedder embedder(family.code(config.true_account),
                                     embed_params);

  auto circuit_r = net.build_circuit(rng);
  if (!circuit_r.ok()) return circuit_r.status();

  std::vector<double> rates(n_chips);
  simulate_flow_bins(net, circuit_r.value(), config.base_rate_pps, t_end,
                     1.0 + config.depth, &embedder,
                     expected_circuit_shift_sec(config.network), chip_sec,
                     rates, rng);

  // One tap, every account's code: a kernel per Gold code, all scanning
  // the SAME rate series as one family on the calling thread.  Handing
  // code ranges to helpers would cost more than the family scan of a
  // few codes at one offset takes.  Slot a answers account a, so the
  // argmax below is deterministic.
  std::vector<watermark::CorrelationKernel> kernels;
  kernels.reserve(config.num_accounts);
  for (std::size_t a = 0; a < config.num_accounts; ++a) {
    kernels.emplace_back(family.code(a), config.threshold_sigmas);
  }
  std::vector<watermark::ScanJob> jobs(config.num_accounts);
  for (std::size_t a = 0; a < config.num_accounts; ++a) {
    jobs[a].kernel = &kernels[a];
    jobs[a].rates = std::span<const double>(rates);
  }
  const auto detections =
      watermark::ScanBatch(watermark::ScanBatchOptions{1}).run(jobs);

  MultiflowResult result;
  result.correlations.reserve(config.num_accounts);
  double best = -2.0, runner_up = -2.0;
  bool winner_fired = false;
  for (std::size_t a = 0; a < config.num_accounts; ++a) {
    const auto& det_r = detections[a];
    if (!det_r.ok()) return det_r.status();
    const double corr = det_r.value().best.correlation;
    result.correlations.push_back(corr);
    if (corr > best) {
      runner_up = best;
      best = corr;
      result.identified_account = a;
      winner_fired = det_r.value().best.detected;
    } else if (corr > runner_up) {
      runner_up = corr;
    }
  }
  result.correct = result.identified_account == config.true_account;
  result.above_threshold = winner_fired;
  result.margin = runner_up > -2.0 ? best - runner_up : best;
  return result;
}

}  // namespace lexfor::tornet
