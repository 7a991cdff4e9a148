#include "tornet/baseline.h"

#include <algorithm>
#include <cmath>

#include "watermark/correlate.h"
#include "watermark/pn_code.h"

namespace lexfor::tornet {
namespace {

std::vector<double> rate_series(const std::vector<double>& times_sec,
                                double window_sec, std::size_t windows) {
  const auto counts = bin_arrivals(times_sec, 0.0, window_sec, windows);
  std::vector<double> out;
  out.reserve(counts.size());
  for (const auto c : counts) out.push_back(static_cast<double>(c));
  return out;
}

}  // namespace

Result<PassiveResult> run_passive_correlation(const PassiveConfig& config) {
  if (config.window_sec <= 0.0 || config.observe_sec <= config.window_sec) {
    return InvalidArgument("passive correlation: bad window configuration");
  }
  AnonymityNetwork net(config.network);
  Rng rng(config.seed);
  const auto windows =
      static_cast<std::size_t>(config.observe_sec / config.window_sec);

  PassiveResult result;

  // The suspect's flow: the server-side send times ARE the reference
  // series; the client-side arrivals are what the ISP sees.
  auto suspect_circuit = net.build_circuit(rng);
  if (!suspect_circuit.ok()) return suspect_circuit.status();
  const auto suspect_sends = generate_modulated_poisson(
      config.base_rate_pps, config.observe_sec, 1.0, nullptr, rng);
  const auto suspect_arrivals =
      net.transit(suspect_circuit.value(), suspect_sends, rng);
  const auto server_series =
      rate_series(suspect_sends, config.window_sec, windows);

  // Scoring goes through the one repo-wide implementation (bit-identical
  // to the naive Pearson test oracle; asserted in tests and gated in
  // bench_baseline).
  result.correlations.push_back(watermark::CorrelationKernel::cross_score(
      server_series, rate_series(suspect_arrivals, config.window_sec, windows)));

  // Decoys: independent flows through their own circuits.  Only their
  // client-side counts matter, so each is simulated in one pass; it
  // leaves `rng` where generate -> transit would, so the next decoy's
  // draws are unchanged.
  std::vector<double> decoy_series(windows);
  for (std::size_t i = 0; i < config.num_decoys; ++i) {
    auto circuit = net.build_circuit(rng);
    if (!circuit.ok()) return circuit.status();
    simulate_flow_bins(net, circuit.value(), config.base_rate_pps,
                       config.observe_sec, 1.0, nullptr, 0.0,
                       config.window_sec, decoy_series, rng);
    result.correlations.push_back(watermark::CorrelationKernel::cross_score(
        server_series, decoy_series));
  }

  const auto best = std::max_element(result.correlations.begin(),
                                     result.correlations.end());
  result.identified_correctly = best == result.correlations.begin();
  double best_decoy = -2.0;
  for (std::size_t i = 1; i < result.correlations.size(); ++i) {
    best_decoy = std::max(best_decoy, result.correlations[i]);
  }
  result.margin = result.correlations.front() - best_decoy;
  return result;
}

Result<ComparisonResult> run_baseline_comparison(
    const TracebackConfig& watermark_config, int trials) {
  if (trials <= 0) return InvalidArgument("comparison: trials must be > 0");

  auto code = watermark::PnCode::m_sequence(watermark_config.pn_degree);
  if (!code.ok()) return code.status();

  ComparisonResult out;
  out.trials = trials;
  out.observation_sec = static_cast<double>(code.value().length()) *
                        watermark_config.chip_ms * 1e-3;

  int wm_ok = 0, passive_ok = 0;
  for (int t = 0; t < trials; ++t) {
    TracebackConfig wm = watermark_config;
    wm.seed = watermark_config.seed + static_cast<std::uint64_t>(t) * 131;
    auto wm_r = run_streaming_traceback(wm);
    if (!wm_r.ok()) return wm_r.status();
    wm_ok += wm_r.value().suspect_detected && wm_r.value().decoys_flagged == 0;

    PassiveConfig passive;
    passive.network = watermark_config.network;
    passive.window_sec = watermark_config.chip_ms * 1e-3;
    passive.observe_sec = out.observation_sec;
    passive.base_rate_pps = watermark_config.base_rate_pps;
    passive.num_decoys = watermark_config.num_decoys;
    passive.seed = wm.seed ^ 0x5a5a5a5a;
    auto p_r = run_passive_correlation(passive);
    if (!p_r.ok()) return p_r.status();
    passive_ok += p_r.value().identified_correctly;
  }
  out.watermark_success_rate = static_cast<double>(wm_ok) / trials;
  out.passive_success_rate = static_cast<double>(passive_ok) / trials;
  return out;
}

}  // namespace lexfor::tornet
