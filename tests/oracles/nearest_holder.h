// The per-query breadth-first search, kept as a test oracle.
//
// anonp2p::Overlay once answered hops_to_nearest_holder (and, through it,
// every proxy's query_delay_ms) with this search: a fresh distance
// vector and deque per call, walked from the queried peer until the
// first holder, expanding only peers below the TTL.  The overlay now
// fills a hop table once, by one multi-source search from the holders;
// the tests require the table to equal this search for every peer.

#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "anonp2p/overlay.h"

namespace lexfor::oracles {

[[nodiscard]] inline std::optional<int> hops_to_nearest_holder(
    const anonp2p::Overlay& overlay, PeerId p) {
  if (!p.valid() || p.value() >= overlay.peer_count()) return std::nullopt;
  if (overlay.holds_file(p)) return 0;

  std::vector<int> dist(overlay.peer_count(), -1);
  std::deque<std::size_t> frontier{p.value()};
  dist[p.value()] = 0;
  while (!frontier.empty()) {
    const std::size_t u = frontier.front();
    frontier.pop_front();
    if (dist[u] >= overlay.config().max_forward_hops) continue;
    for (const PeerId nb : overlay.neighbors(PeerId{u})) {
      const std::size_t v = nb.value();
      if (dist[v] != -1) continue;
      dist[v] = dist[u] + 1;
      if (overlay.holds_file(nb)) return dist[v];
      frontier.push_back(v);
    }
  }
  return std::nullopt;
}

}  // namespace lexfor::oracles
