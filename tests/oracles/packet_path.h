// The packet path's one-at-a-time loops: the definitions that
// tornet::generate_modulated_poisson and AnonymityNetwork::transit
// reproduce bit for bit while they draw in blocks and take each block's
// logs in one lane call.  One Rng::exponential, one uniform, one draw
// at a time, in the order the blocked loops must keep.

#pragma once

#include <algorithm>
#include <cmath>
#include <functional>
#include <vector>

#include "tornet/anonymity_network.h"
#include "util/rng.h"

namespace lexfor::oracles {

// Lewis-Shedler thinning on [0, t_end_sec): per candidate one
// exponential gap at the peak rate and one thinning uniform, then the gap
// that crosses t_end_sec.  The same guards as the library: a rate or
// t_end that is <= 0 or not finite draws nothing.
inline std::vector<double> generate_modulated_poisson(
    double base_rate, double t_end_sec, double max_multiplier,
    const std::function<double(double)>& multiplier, Rng& rng) {
  std::vector<double> out;
  const double lambda_max = base_rate * std::max(max_multiplier, 1.0);
  if (!(base_rate > 0.0 && t_end_sec > 0.0 && std::isfinite(lambda_max) &&
        std::isfinite(t_end_sec))) {
    return out;
  }
  for (double t = 0.0;;) {
    t += rng.exponential(1.0 / lambda_max);
    if (t >= t_end_sec) break;
    const double lam = multiplier ? base_rate * multiplier(t) : base_rate;
    if (rng.uniform01() < lam / lambda_max) out.push_back(t);
  }
  return out;
}

// Arrival i = send i + one packet_delay_ms call, in send order.
inline std::vector<double> transit(const tornet::AnonymityNetwork& net,
                                   const tornet::Circuit& circuit,
                                   const std::vector<double>& send_sec,
                                   Rng& rng) {
  std::vector<double> arrivals;
  arrivals.reserve(send_sec.size());
  for (const double t : send_sec) {
    arrivals.push_back(t + net.packet_delay_ms(circuit, rng) * 1e-3);
  }
  return arrivals;
}

}  // namespace lexfor::oracles
