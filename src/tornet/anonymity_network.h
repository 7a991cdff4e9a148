// Onion-routing anonymity network (Tor/Anonymizer-style), the substrate
// for the §IV.B traceback experiment.
//
// Content and addressing inside the network are encrypted hop-to-hop, so
// an investigator cannot read who talks to whom — but packet *timing*
// survives: each relay adds batching and jitter, yet the coarse rate
// envelope of a flow persists end-to-end.  That is precisely the channel
// the DSSS watermark uses.

#pragma once

#include <functional>
#include <span>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"
#include "util/status.h"

namespace lexfor::watermark {
class Embedder;
}  // namespace lexfor::watermark

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

  // Carries a flow through the circuit: given packet send times (sec),
  // returns arrival i = send i + packet_delay_ms(circuit, rng) * 1e-3,
  // in send order.  Each packet independently accrues per-relay latency
  // + jitter + batching delay, so arrivals may be out of order; they
  // are not sorted, since detection only counts them (bin_arrivals).
  // The draws come in blocks, their logs from util::lane_log; arrivals
  // and the end state of `rng` are the packet_delay_ms loop's.
  [[nodiscard]] std::vector<double> transit(const Circuit& circuit,
                                            const std::vector<double>& send_sec,
                                            Rng& rng) const;

  // One packet's delay through `circuit` (ms): the base propagation,
  // then per relay one jitter draw and one batching draw, in that
  // order.  This is the definition transit() and simulate_flow_bins()
  // repeat, operation for operation, on their blocked relay draws.
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
// must return values in (0, max_multiplier].  A rate or t_end that is
// <= 0 or not finite draws nothing and yields no sends.  Per candidate
// it draws one exponential gap and one thinning uniform, then the gap
// that crosses t_end, in blocks with their logs from util::lane_log:
// the sends and the end state of `rng` are the one-at-a-time loop's.
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

// One flow, end to end, in a single pass:
//
//   bin_arrivals(net.transit(circuit,
//                    generate_modulated_poisson(base_rate, t_end_sec,
//                        max_multiplier, multiplier, rng), rng),
//                start_sec, window_sec, bins.size())
//
// with multiplier(t) = mark->multiplier(SimTime::from_sec(t)), or none
// for a null `mark` (an unmarked flow), written into `bins` as doubles
// (whole counts, so exact), with no heap allocation and no sort.  The
// bins are bit-identical to the composition's on every input, and `rng`
// ends in the state the composition leaves it in: a caller drawing on
// afterwards sees the same stream either way.  The composition's guards
// hold: a rate or t_end <= 0 or not finite draws nothing, a window <= 0
// counts nothing (the draws still happen), and arrivals before
// start_sec or past the last window are dropped.
//
// The pass is the composition's loop, run on two cursors.  The
// composition makes all of its generation draws (per Poisson candidate
// one exponential and one uniform, then the exponential that crosses
// t_end) before any of transit's (per kept packet and relay, one
// exponential and one uniform).  So a copy of `rng` steps over the
// generation draws with skip_generation_draws and then sits where
// transit's draws begin; the candidates are replayed on a second copy,
// and each kept send takes its delay from the first.  Both cursors are
// the blocked loops generate_modulated_poisson and transit run, so every
// send time and arrival is the composition's.  Binning only counts, so
// arrival order never matters.
void simulate_flow_bins(const AnonymityNetwork& net, const Circuit& circuit,
                        double base_rate, double t_end_sec,
                        double max_multiplier, const watermark::Embedder* mark,
                        double start_sec, double window_sec,
                        std::span<double> bins, Rng& rng);

}  // namespace lexfor::tornet
