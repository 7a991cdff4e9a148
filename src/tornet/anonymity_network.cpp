#include "tornet/anonymity_network.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

namespace lexfor::tornet {
namespace {

// Candidates per log in skip_generation_draws.
constexpr int kBlock = 16;

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
  std::sort(arrivals.begin(), arrivals.end());
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
      const double u = block.uniform01();
      product *= u <= 0.0 ? 0x1.0p-53 : u;  // Rng::exponential's clamp
      (void)block();                          // the thinning draw
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

std::vector<double> generate_modulated_poisson(
    double base_rate, double t_end_sec, double max_multiplier,
    const std::function<double(double)>& multiplier, Rng& rng) {
  std::vector<double> out;
  if (base_rate <= 0.0 || t_end_sec <= 0.0) return out;
  const double lambda_max = base_rate * std::max(max_multiplier, 1.0);
  double t = 0.0;
  while (true) {
    t += rng.exponential(1.0 / lambda_max);
    if (t >= t_end_sec) break;
    const double lam = multiplier ? base_rate * multiplier(t) : base_rate;
    if (rng.uniform01() < lam / lambda_max) out.push_back(t);
  }
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
