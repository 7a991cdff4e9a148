#include "tornet/anonymity_network.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>

#include "util/lane_log.h"
#include "watermark/dsss.h"

namespace lexfor::tornet {
namespace {

// Candidates per log in skip_generation_draws.
constexpr int kBlock = 16;

// Candidates per lane-log block on simulate_flow_bins' send cursor, and
// relay draws per block on its delay cursor (multiples of
// util::kLaneLogBlock): 3 KB of stack scratch for any circuit length.
constexpr std::size_t kSendBlock = 64;
constexpr std::size_t kDelayBlock = 128;

// Rng::exponential's clamp: a uniform of 0 is taken as 2^-53.
double clamped(double u) { return u <= 0.0 ? 0x1.0p-53 : u; }

// The one exact definition of a flow's bins: the composition's loop on
// two cursors (see simulate_flow_bins in the header).
void exact_flow_bins(const AnonymityNetwork& net, const Circuit& circuit,
                     double base_rate, double t_end_sec, double lambda_max,
                     const watermark::Embedder* mark, double start_sec,
                     double window_sec, std::span<double> bins, Rng& rng) {
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
    const double lam =
        mark != nullptr ? base_rate * mark->multiplier(SimTime::from_sec(t))
                        : base_rate;
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

// exact_flow_bins with every log from the lane log and every send time
// and arrival carried as a bracket that holds the exact loop's value.
// Returns false where a decision straddles its bracket; `bins` and `rng`
// then hold nothing of use.  Takes a window > 0 and finite, non-negative
// delay parameters, so no bracket end is ever NaN.
bool bracketed_flow_bins(const AnonymityNetwork& net, const Circuit& circuit,
                         double base_rate, double t_end_sec,
                         double lambda_max, const watermark::Embedder* mark,
                         double start_sec, double window_sec,
                         std::span<double> bins, Rng& rng) {
  const util::LaneLog lane_log = util::lane_log();
  // A lane log L of a uniform is negative, and L * kGrow <= std::log(u)
  // <= L * kShrink (util/lane_log.h derives the margin).  Every
  // exponential below is (-mean) * log with mean >= 0, so the shrunk log
  // gives the low end of the draw and the grown one the high end.
  constexpr double kGrow = 1.0 + util::kLaneLogMargin;
  constexpr double kShrink = 1.0 - util::kLaneLogMargin;
  const TorConfig& tor = net.config();
  const std::size_t relays = circuit.relays.size();
  const double base_ms = static_cast<double>(relays) * tor.hop_latency_ms;
  const double neg_jitter = -tor.relay_jitter_ms;
  const double batch_ms = tor.relay_batch_ms;
  const double neg_gap = -(1.0 / lambda_max);
  const auto windows = static_cast<double>(bins.size());
  // The thinning compare's right side, lam / lambda_max: fixed for an
  // unmarked flow, and for a marked one while the send time stays in
  // the current chip, which ends at `chip_end`.
  double keep = base_rate / lambda_max;
  SimTime chip_end{INT64_MIN};

  // The delay cursor, a block of relay draws at a time: `block_start` is
  // its state before the current block, whose first `used` draws are
  // taken.
  Rng delays = rng;
  skip_generation_draws(delays, 1.0 / lambda_max, t_end_sec);
  Rng block_start = delays;
  std::size_t used = 0;
  double jitter_log[kDelayBlock];
  double batch_u[kDelayBlock];
  const auto refill = [&] {
    block_start = delays;
    for (std::size_t k = 0; k < kDelayBlock; ++k) {
      jitter_log[k] = clamped(delays.uniform01());
      batch_u[k] = delays.uniform01();
    }
    lane_log(jitter_log, jitter_log, kDelayBlock);
    used = 0;
  };
  refill();

  // The send cursor, a block of candidates at a time.  Draws past the
  // crossing candidate are harmless: this cursor is dropped at the end.
  Rng sends = rng;
  double gap_log[kSendBlock];
  double thin_u[kSendBlock];
  double t_lo = 0.0;
  double t_hi = 0.0;
  for (;;) {
    for (std::size_t i = 0; i < kSendBlock; ++i) {
      gap_log[i] = clamped(sends.uniform01());
      thin_u[i] = sends.uniform01();
    }
    lane_log(gap_log, gap_log, kSendBlock);
    for (std::size_t i = 0; i < kSendBlock; ++i) {
      t_lo += neg_gap * (gap_log[i] * kShrink);
      t_hi += neg_gap * (gap_log[i] * kGrow);
      if (t_hi >= t_end_sec) {
        if (!(t_lo >= t_end_sec)) return false;
        // The walk has ended: leave the delay cursor after the draws
        // the kept sends took.
        rng = block_start;
        for (std::size_t k = 0; k < 2 * used; ++k) (void)rng();
        return true;
      }
      // One chip index at both ends fixes the multiplier, and with it
      // the thinning compare.  Send times only grow, so a bracket that
      // ends before chip_end lies in `chip` whole.
      if (mark != nullptr && !(SimTime::from_sec(t_hi) < chip_end)) {
        const SimTime lo = SimTime::from_sec(t_lo);
        const SimTime hi = SimTime::from_sec(t_hi);
        const std::int64_t chip = mark->chip_index(lo);
        if (hi != lo && mark->chip_index(hi) != chip) return false;
        chip_end = mark->chip_end(chip);
        keep = base_rate * mark->chip_multiplier(chip) / lambda_max;
      }
      if (!(thin_u[i] < keep)) continue;

      // AnonymityNetwork::packet_delay_ms at both ends.
      double d_lo = base_ms;
      double d_hi = base_ms;
      for (std::size_t r = 0; r < relays; ++r) {
        if (used == kDelayBlock) refill();
        d_lo += neg_jitter * (jitter_log[used] * kShrink);
        d_hi += neg_jitter * (jitter_log[used] * kGrow);
        const double batch = batch_u[used] * batch_ms;
        d_lo += batch;
        d_hi += batch;
        ++used;
      }
      const double rel_lo = (t_lo + d_lo * 1e-3) - start_sec;
      const double rel_hi = (t_hi + d_hi * 1e-3) - start_sec;
      if (rel_hi < 0.0) continue;
      if (rel_lo < 0.0) return false;
      const double window_lo = rel_lo / window_sec;
      const double window_hi = rel_hi / window_sec;
      if (!(window_lo < windows)) continue;
      if (!(window_hi < windows)) return false;
      const auto bin = static_cast<std::size_t>(window_lo);
      if (static_cast<std::size_t>(window_hi) != bin) return false;
      bins[bin] += 1.0;
    }
  }
}

bool finite_non_negative(double x) { return x >= 0.0 && std::isfinite(x); }

// Whether a thinned Poisson walk on [0, t_end) at peak rate lambda_max
// draws at all.  A rate or t_end <= 0 draws nothing, and so does a
// non-finite one: a NaN rate or t_end never reaches the walk's end, and
// an infinite t_end grows the sends without bound.
bool draws_candidates(double base_rate, double lambda_max, double t_end_sec) {
  return base_rate > 0.0 && t_end_sec > 0.0 && std::isfinite(lambda_max) &&
         std::isfinite(t_end_sec);
}

// generate_modulated_poisson's first allocation, in sends, for a walk
// whose expected candidate count is larger.
constexpr double kMaxInitialSends = 1 << 20;

}  // namespace

Result<Circuit> AnonymityNetwork::build_circuit(Rng& rng) const {
  if (static_cast<std::size_t>(config_.circuit_length) > config_.num_relays) {
    return InvalidArgument(
        "build_circuit: circuit longer than the relay population");
  }
  Circuit c;
  // Process-wide unique circuit ids; circuits may be built on several
  // threads at once.
  static std::atomic<CircuitId::underlying_type> next_id{0};
  c.id = CircuitId{next_id.fetch_add(1, std::memory_order_relaxed)};
  // Sample distinct relays.
  std::vector<std::size_t> pool(config_.num_relays);
  for (std::size_t i = 0; i < pool.size(); ++i) pool[i] = i;
  rng.shuffle(pool);
  c.relays.assign(pool.begin(), pool.begin() + config_.circuit_length);
  return c;
}

std::vector<double> AnonymityNetwork::transit(
    const Circuit& circuit, const std::vector<double>& send_sec,
    Rng& rng) const {
  std::vector<double> arrivals;
  arrivals.reserve(send_sec.size());
  for (const double t : send_sec) {
    arrivals.push_back(t + packet_delay_ms(circuit, rng) * 1e-3);
  }
  return arrivals;
}

void skip_generation_draws(Rng& rng, double mean_gap, double t_end) {
  // t is the walk's running sum computed another way: one log of a
  // 16-uniform product per block, then one log per candidate near the
  // end.  After k candidates it differs from the walk's sum by at most
  //
  //   slack(k, t) = (2k + 16) ulp(t_end) + 1e-12 (t + k mean_gap)
  //
  // for any libm whose log is within a few hundred ULP.  The terms:
  //   - rounding of each add: the walk adds once per candidate and t at
  //     most once, each sum below t_end, so <= ulp(t_end)/2 apiece;
  //     an increment rounding to a subnormal adds < ulp(t_end)/2 more.
  //     Together <= 2k ulp(t_end).
  //   - log and scaling error: relative, (L + 1) 2^-52 of the increment
  //     on each side for a log within L ULP, so 2 (L + 1) 2^-52 of the
  //     sum: 1e-12 t covers L up to about 2,000.
  //   - the product's 15 roundings (it cannot underflow: 16 uniforms
  //     clamped at 2^-53 stay >= 2^-848) shift its log by < 2^-49, so
  //     a block's sum by < 2^-49 mean_gap: < 2^-53 mean_gap a candidate,
  //     inside 1e-12 k mean_gap.
  //   - the comparisons' own rounding and the crossing add: a few
  //     ulp(t_end), inside the 16.
  // Sums are non-decreasing, so a block whose t plus slack ends below
  // t_end holds no crossing, and a candidate whose t lies more than the
  // slack from t_end is on the same side of it as the walk's.  Only a
  // crossing within the slack (at the default traceback, ~2e-9 s, about
  // one flow in a million) falls back to the walk itself.
  const Rng start = rng;
  const double ulp = std::nextafter(t_end, HUGE_VAL) - t_end;
  const auto slack = [ulp, mean_gap](double k, double t) {
    return (2.0 * k + 16.0) * ulp + 1e-12 * (t + k * mean_gap);
  };
  double t = 0.0;
  double k = 0.0;
  for (;;) {
    Rng block = rng;
    double product = 1.0;
    for (int i = 0; i < kBlock; ++i) {
      product *= clamped(block.uniform01());
      (void)block();  // the thinning draw
    }
    const double next = t - mean_gap * std::log(product);
    if (!(next + slack(k + kBlock, next) < t_end)) break;
    rng = block;
    t = next;
    k += kBlock;
  }
  for (;;) {
    t += rng.exponential(mean_gap);
    k += 1.0;
    const double s = slack(k, t);
    if (t + s < t_end) {
      (void)rng();
      continue;
    }
    if (t - s >= t_end) return;
    break;  // too close to t_end to call
  }
  rng = start;
  for (double exact = 0.0;;) {
    exact += rng.exponential(mean_gap);
    if (exact >= t_end) return;
    (void)rng();
  }
}

void simulate_flow_bins(const AnonymityNetwork& net, const Circuit& circuit,
                        double base_rate, double t_end_sec,
                        double max_multiplier, const watermark::Embedder* mark,
                        double start_sec, double window_sec,
                        std::span<double> bins, Rng& rng) {
  std::fill(bins.begin(), bins.end(), 0.0);
  const double lambda_max = base_rate * std::max(max_multiplier, 1.0);
  if (!draws_candidates(base_rate, lambda_max, t_end_sec)) return;
  const TorConfig& tor = net.config();
  const bool bracketable =
      window_sec > 0.0 && std::isfinite(window_sec) &&
      std::isfinite(start_sec) && finite_non_negative(tor.hop_latency_ms) &&
      finite_non_negative(tor.relay_jitter_ms) &&
      finite_non_negative(tor.relay_batch_ms) &&
      (mark == nullptr || mark->params().chip_duration.us > 0);
  if (bracketable) {
    Rng fast = rng;
    if (bracketed_flow_bins(net, circuit, base_rate, t_end_sec, lambda_max,
                            mark, start_sec, window_sec, bins, fast)) {
      rng = fast;
      return;
    }
    std::fill(bins.begin(), bins.end(), 0.0);
  }
  exact_flow_bins(net, circuit, base_rate, t_end_sec, lambda_max, mark,
                  start_sec, window_sec, bins, rng);
}

std::vector<double> generate_modulated_poisson(
    double base_rate, double t_end_sec, double max_multiplier,
    const std::function<double(double)>& multiplier, Rng& rng) {
  std::vector<double> out;
  const double lambda_max = base_rate * std::max(max_multiplier, 1.0);
  if (!draws_candidates(base_rate, lambda_max, t_end_sec)) return out;
  // The keep test is data, not a branch: every candidate is written at
  // out[kept] and only a kept one advances kept, so a thinning draw that
  // goes against the last one flushes nothing already in flight.  The
  // draws, and so the sends, are the branching loop's.  `out` starts at
  // the expected candidate count and doubles when full.
  out.resize(static_cast<std::size_t>(
                 std::min(lambda_max * t_end_sec, kMaxInitialSends)) +
             1);
  std::size_t kept = 0;
  for (double t = 0.0;;) {
    t += rng.exponential(1.0 / lambda_max);
    if (t >= t_end_sec) break;
    const double lam = multiplier ? base_rate * multiplier(t) : base_rate;
    if (kept == out.size()) out.resize(2 * kept);
    out[kept] = t;
    kept += static_cast<std::size_t>(rng.uniform01() < lam / lambda_max);
  }
  out.resize(kept);
  return out;
}

std::vector<std::uint32_t> bin_arrivals(const std::vector<double>& arrivals_sec,
                                        double start_sec, double window_sec,
                                        std::size_t num_windows) {
  std::vector<std::uint32_t> bins(num_windows, 0);
  if (window_sec <= 0.0) return bins;
  for (const double a : arrivals_sec) {
    const double rel = a - start_sec;
    if (rel < 0.0) continue;
    const auto idx = static_cast<std::size_t>(rel / window_sec);
    if (idx < num_windows) ++bins[idx];
  }
  return bins;
}

}  // namespace lexfor::tornet
