// Onion-routing anonymity network (Tor/Anonymizer-style), the substrate
// for the §IV.B traceback experiment.
//
// Content and addressing inside the network are encrypted hop-to-hop, so
// an investigator cannot read who talks to whom — but packet *timing*
// survives: each relay adds batching and jitter, yet the coarse rate
// envelope of a flow persists end-to-end.  That is precisely the channel
// the DSSS watermark uses.

#pragma once

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"
#include "util/status.h"

namespace lexfor::tornet {

struct TorConfig {
  std::size_t num_relays = 9;
  int circuit_length = 3;       // entry, middle(s), exit
  // Per-relay forwarding jitter (exponential mean, ms).
  double relay_jitter_ms = 30.0;
  // Per-relay batching quantum (uniform [0, batch) ms): relays flush
  // queued cells periodically.
  double relay_batch_ms = 10.0;
  // Base propagation per hop (ms).
  double hop_latency_ms = 25.0;
};

// The mean delay a circuit adds to every packet, in seconds: per hop,
// the propagation latency plus the mean jitter plus half the batching
// quantum.  The §IV.B investigator aligns the observation window at
// this shift; it calibrates it by measuring circuit RTT, which is
// observable without content.
[[nodiscard]] inline double expected_circuit_shift_sec(
    const TorConfig& config) noexcept {
  return static_cast<double>(config.circuit_length) *
         (config.hop_latency_ms + config.relay_jitter_ms +
          config.relay_batch_ms / 2.0) *
         1e-3;
}

struct Circuit {
  CircuitId id;
  std::vector<std::size_t> relays;  // indices into the relay set
};

class AnonymityNetwork {
 public:
  explicit AnonymityNetwork(TorConfig config) : config_(config) {}

  [[nodiscard]] const TorConfig& config() const noexcept { return config_; }

  // Builds a circuit of `circuit_length` distinct relays.
  [[nodiscard]] Result<Circuit> build_circuit(Rng& rng) const;

  // Carries a flow through the circuit: given packet send times (sec,
  // ascending), returns arrival times at the far end (sec, sorted).
  // Each packet independently accrues per-relay latency + jitter +
  // batching delay; reordering is resolved by sorting, since detection
  // operates on the counting process, not packet identity.
  [[nodiscard]] std::vector<double> transit(const Circuit& circuit,
                                            const std::vector<double>& send_sec,
                                            Rng& rng) const;

  // One packet's delay through `circuit` (ms): the base propagation,
  // then per relay one jitter draw and one batching draw, in that
  // order.  transit() and simulate_flow_bins() both take their
  // per-packet draws from here, so the two cannot drift apart.
  [[nodiscard]] double packet_delay_ms(const Circuit& circuit,
                                       Rng& rng) const noexcept {
    double delay_ms =
        static_cast<double>(circuit.relays.size()) * config_.hop_latency_ms;
    for (std::size_t r = 0; r < circuit.relays.size(); ++r) {
      delay_ms += rng.exponential(config_.relay_jitter_ms);
      delay_ms += rng.uniform01() * config_.relay_batch_ms;
    }
    return delay_ms;
  }

 private:
  TorConfig config_;
};

// Generates send times (sec) of a Poisson process on [0, t_end) whose
// instantaneous rate is base_rate * multiplier(t) — via Lewis-Shedler
// thinning.  `multiplier` may be nullptr for a homogeneous process, and
// must return values in (0, max_multiplier].
std::vector<double> generate_modulated_poisson(
    double base_rate, double t_end_sec, double max_multiplier,
    const std::function<double(double)>& multiplier, Rng& rng);

// Bins arrival times (sec) into windows of `window_sec` aligned at
// `start_sec`, producing `num_windows` counts — the rate series an ISP
// tap observes without touching content.
std::vector<std::uint32_t> bin_arrivals(const std::vector<double>& arrivals_sec,
                                        double start_sec, double window_sec,
                                        std::size_t num_windows);

// Steps `rng` over the draws a thinned Poisson candidate walk on
// [0, t_end) with mean_gap > 0 makes, and leaves it exactly where this
// walk would:
//
//   for (double t = 0.0;;) {
//     t += rng.exponential(mean_gap);
//     if (t >= t_end) break;
//     (void)rng();  // the candidate's thinning draw
//   }
//
// generate_modulated_poisson makes these draws (its thinning uniform is
// one raw draw).  The walk takes one log per candidate; this takes one
// per 16 candidates wherever a block of 16 provably ends below t_end,
// walks the block that may cross one candidate at a time, and replays
// the walk above when the crossing lies too close to t_end to call.
// The end state is bit-identical to the walk's whichever path decides.
void skip_generation_draws(Rng& rng, double mean_gap, double t_end);

// The homogeneous process's rate multiplier for simulate_flow_bins (the
// nullptr of generate_modulated_poisson): base_rate * 1.0 == base_rate.
struct UnitMultiplier {
  double operator()(double /*t_sec*/) const noexcept { return 1.0; }
};

// One flow, end to end, in a single pass:
//
//   bin_arrivals(net.transit(circuit,
//                    generate_modulated_poisson(base_rate, t_end_sec,
//                        max_multiplier, multiplier, rng), rng),
//                start_sec, window_sec, bins.size())
//
// written into `bins` as doubles (whole counts, so exact), with no heap
// allocation and no sort.  Every random draw is the one the composition
// makes, so the bins are bit-identical to it and `rng` ends in the state
// the composition leaves it in: a caller drawing on afterwards sees the
// same stream either way.
//
// The composition makes all of its generation draws (per Poisson
// candidate one exponential and one uniform, then the exponential that
// crosses t_end) before any of transit's (per kept packet and relay,
// one exponential and one uniform).  So a copy of `rng` first steps over
// the generation draws with skip_generation_draws — it needs only where
// generation stops, not the candidate times or the thinning decisions —
// and then sits where transit's draws begin.  Generation is replayed on
// a second copy, and each kept send takes its delay from the first.
// Binning only counts, so the arrival order transit sorts for never
// matters.
//
// `multiplier` is any callable double(double); pass UnitMultiplier{}
// for a homogeneous flow.  The composition's guards hold: a rate or
// t_end <= 0 draws nothing, a window <= 0 counts nothing (the draws
// still happen), and arrivals before start_sec or past the last window
// are dropped.
template <typename Multiplier>
void simulate_flow_bins(const AnonymityNetwork& net, const Circuit& circuit,
                        double base_rate, double t_end_sec,
                        double max_multiplier, const Multiplier& multiplier,
                        double start_sec, double window_sec,
                        std::span<double> bins, Rng& rng) {
  std::fill(bins.begin(), bins.end(), 0.0);
  if (base_rate <= 0.0 || t_end_sec <= 0.0) return;
  const double lambda_max = base_rate * std::max(max_multiplier, 1.0);

  // Cursor 1: step over the generation draws.
  Rng delays = rng;
  skip_generation_draws(delays, 1.0 / lambda_max, t_end_sec);

  // Cursor 2: replay generation; kept sends draw their delays from
  // cursor 1 and are counted where they arrive.
  Rng sends = rng;
  const bool counting = window_sec > 0.0;
  const auto windows = static_cast<double>(bins.size());
  for (double t = 0.0;;) {
    t += sends.exponential(1.0 / lambda_max);
    if (t >= t_end_sec) break;
    const double lam = base_rate * multiplier(t);
    if (!(sends.uniform01() < lam / lambda_max)) continue;
    const double arrival = t + net.packet_delay_ms(circuit, delays) * 1e-3;
    const double rel = arrival - start_sec;
    if (!counting || rel < 0.0) continue;
    // bin_arrivals' idx < num_windows test, made before the cast.
    const double window = rel / window_sec;
    if (window < windows) bins[static_cast<std::size_t>(window)] += 1.0;
  }
  rng = delays;
}

}  // namespace lexfor::tornet
