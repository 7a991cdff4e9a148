#include "tornet/anonymity_network.h"

#include <algorithm>
#include <atomic>
#include <functional>

namespace lexfor::tornet {

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
