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

// Candidates per lane-log block of the Poisson walk, and relay draws per
// block of the packet delays (multiples of util::kLaneLogBlock): 3 KB of
// stack scratch for any circuit length.
constexpr std::size_t kSendBlock = 64;
constexpr std::size_t kDelayBlock = 128;

// Rng::exponential's clamp: a uniform of 0 is taken as 2^-53.
double clamped(double u) { return u <= 0.0 ? 0x1.0p-53 : u; }

// The thinned Poisson walk on [0, t_end) at peak rate lambda_max, a
// block of kSendBlock candidates at a time:
//
//   for (double t = 0.0;;) {
//     t += rng.exponential(1.0 / lambda_max);
//     if (t >= t_end) break;
//     visit(t, rng.uniform01() < base_rate * multiplier(t) / lambda_max);
//   }
//
// Each block draws its uniforms in the walk's order and takes their logs
// in one lane call, which gives Rng::exponential's bits, so every t is
// the walk's.  The block that crosses t_end rewinds `rng` to its start
// and replays the 2k + 1 draws the walk takes in it, so `rng` ends where
// the walk leaves it.  The threshold is recomputed only when the
// multiplier's value changes: the same operations on the same inputs,
// so the same bits (and base_rate * 1.0 is base_rate).
template <typename Multiplier, typename Visit>
void thinned_walk(Rng& rng, double base_rate, double lambda_max, double t_end,
                  Multiplier&& multiplier, Visit&& visit) {
  const util::LaneLog lane_log = util::lane_log();
  const double neg_gap = -(1.0 / lambda_max);
  double seen = 1.0;
  double keep = base_rate * seen / lambda_max;
  double gap_log[kSendBlock];
  double thin_u[kSendBlock];
  double t = 0.0;
  for (;;) {
    const Rng block_start = rng;
    for (std::size_t i = 0; i < kSendBlock; ++i) {
      gap_log[i] = clamped(rng.uniform01());
      thin_u[i] = rng.uniform01();
    }
    lane_log(gap_log, gap_log, kSendBlock);
    for (std::size_t i = 0; i < kSendBlock; ++i) {
      t += neg_gap * gap_log[i];
      if (t >= t_end) {
        rng = block_start;
        for (std::size_t k = 0; k < 2 * i + 1; ++k) (void)rng();
        return;
      }
      const double m = multiplier(t);
      if (m != seen) {
        seen = m;
        keep = base_rate * m / lambda_max;
      }
      visit(t, thin_u[i] < keep);
    }
  }
}

// AnonymityNetwork::packet_delay_ms, packet after packet, with the relay
// draws taken kDelayBlock at a time in its order and each block's logs
// in one lane call: the same bits.  finish() leaves `rng` after the
// draws the delays took, where the one-at-a-time calls leave it.
class PacketDelays {
 public:
  PacketDelays(const AnonymityNetwork& net, const Circuit& circuit, Rng& rng)
      : tor_(net.config()),
        relays_(circuit.relays.size()),
        rng_(rng),
        block_start_(rng) {
    refill();
  }

  double next_ms() noexcept {
    double delay_ms = static_cast<double>(relays_) * tor_.hop_latency_ms;
    for (std::size_t r = 0; r < relays_; ++r) {
      if (used_ == kDelayBlock) refill();
      delay_ms += -tor_.relay_jitter_ms * jitter_log_[used_];
      delay_ms += batch_u_[used_] * tor_.relay_batch_ms;
      ++used_;
    }
    return delay_ms;
  }

  void finish() noexcept {
    rng_ = block_start_;
    for (std::size_t k = 0; k < 2 * used_; ++k) (void)rng_();
  }

 private:
  void refill() noexcept {
    block_start_ = rng_;
    for (std::size_t k = 0; k < kDelayBlock; ++k) {
      jitter_log_[k] = clamped(rng_.uniform01());
      batch_u_[k] = rng_.uniform01();
    }
    util::lane_log()(jitter_log_, jitter_log_, kDelayBlock);
    used_ = 0;
  }

  const TorConfig& tor_;
  std::size_t relays_;
  Rng& rng_;
  Rng block_start_;       // rng_ before the current block
  std::size_t used_ = 0;  // draws of the current block taken
  double jitter_log_[kDelayBlock];
  double batch_u_[kDelayBlock];
};

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
  PacketDelays delays(*this, circuit, rng);
  for (const double t : send_sec) {
    arrivals.push_back(t + delays.next_ms() * 1e-3);
  }
  delays.finish();
  return arrivals;
}

void skip_generation_draws(Rng& rng, double mean_gap, double t_end) {
  // t is the walk's running sum computed another way: one log of a
  // 16-uniform product per block, then one log per candidate near the
  // end.  After k candidates it differs from the walk's sum by at most
  //
  //   slack(k, t) = (2k + 16) ulp(t_end) + 1e-12 (t + k mean_gap)
  //
  // for any log within a few hundred ULP.  The terms:
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
    const double next = t - mean_gap * util::log(product);
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

  // Cursor 1: step over the generation draws; transit's begin there.
  Rng delay_rng = rng;
  skip_generation_draws(delay_rng, 1.0 / lambda_max, t_end_sec);
  PacketDelays delays(net, circuit, delay_rng);

  // Cursor 2: replay generation; kept sends draw their delays from
  // cursor 1 and are counted where they arrive.
  Rng sends = rng;
  const bool counting = window_sec > 0.0;
  const auto windows = static_cast<double>(bins.size());
  thinned_walk(
      sends, base_rate, lambda_max, t_end_sec,
      [mark](double t) {
        return mark != nullptr ? mark->multiplier(SimTime::from_sec(t)) : 1.0;
      },
      [&](double t, bool kept) {
        if (!kept) return;
        const double rel = (t + delays.next_ms() * 1e-3) - start_sec;
        if (!counting || rel < 0.0) return;
        // bin_arrivals' idx < num_windows test, made before the cast.
        const double window = rel / window_sec;
        if (window < windows) bins[static_cast<std::size_t>(window)] += 1.0;
      });
  delays.finish();
  rng = delay_rng;
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
  thinned_walk(
      rng, base_rate, lambda_max, t_end_sec,
      [&multiplier](double t) { return multiplier ? multiplier(t) : 1.0; },
      [&](double t, bool keep) {
        if (kept == out.size()) out.resize(2 * kept);
        out[kept] = t;
        kept += static_cast<std::size_t>(keep);
      });
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
