#include "anonp2p/overlay.h"

#include <algorithm>

namespace lexfor::anonp2p {

Overlay::Overlay(OverlayConfig config) : config_(config) {
  const std::size_t n = std::max<std::size_t>(config_.num_peers, 2);
  adjacency_.assign(n, {});
  has_file_.assign(n, false);

  Rng rng(config_.seed);

  auto linked = [&](std::size_t a, std::size_t b) {
    const PeerId pb{b};
    const auto& adj = adjacency_[a];
    return std::find(adj.begin(), adj.end(), pb) != adj.end();
  };
  auto link = [&](std::size_t a, std::size_t b) {
    if (a == b || linked(a, b)) return;
    adjacency_[a].push_back(PeerId{b});
    adjacency_[b].push_back(PeerId{a});
  };

  // Ring backbone keeps the trust graph connected.
  for (std::size_t i = 0; i < n; ++i) link(i, (i + 1) % n);

  // Random chords up to the target degree.
  for (std::size_t i = 0; i < n; ++i) {
    while (adjacency_[i].size() < config_.trusted_degree) {
      const std::size_t j = rng.uniform(n);
      if (j == i) continue;
      if (linked(i, j)) {
        // Dense small overlays can saturate; bail out rather than spin.
        if (adjacency_[i].size() + 1 >= n) break;
        continue;
      }
      link(i, j);
    }
  }

  // Assign file holders; guarantee at least one so queries can succeed.
  for (std::size_t i = 0; i < n; ++i) {
    has_file_[i] = rng.bernoulli(config_.file_popularity);
  }
  if (std::none_of(has_file_.begin(), has_file_.end(),
                   [](bool b) { return b; })) {
    has_file_[rng.uniform(n)] = true;
  }

  // The overlay never changes, so each peer's hop distance to its
  // nearest holder is found once: one BFS from every holder at once,
  // expanding only peers below the TTL.  Trust links are symmetric, so
  // this is the distance a query walks.
  hops_.assign(n, -1);
  std::vector<std::size_t> frontier;
  frontier.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!has_file_[i]) continue;
    hops_[i] = 0;
    frontier.push_back(i);
  }
  for (std::size_t next = 0; next < frontier.size(); ++next) {
    const std::size_t u = frontier[next];
    if (hops_[u] >= config_.max_forward_hops) continue;
    for (const auto nb : adjacency_[u]) {
      const std::size_t v = nb.value();
      if (hops_[v] != -1) continue;
      hops_[v] = hops_[u] + 1;
      frontier.push_back(v);
    }
  }
}

const std::vector<PeerId>& Overlay::neighbors(PeerId p) const {
  static const std::vector<PeerId> kEmpty;
  if (!p.valid() || p.value() >= adjacency_.size()) return kEmpty;
  return adjacency_[p.value()];
}

bool Overlay::holds_file(PeerId p) const {
  return p.valid() && p.value() < has_file_.size() && has_file_[p.value()];
}

std::size_t Overlay::holder_count() const {
  return static_cast<std::size_t>(
      std::count(has_file_.begin(), has_file_.end(), true));
}

std::optional<int> Overlay::hops_to_nearest_holder(PeerId p) const {
  if (!p.valid() || p.value() >= hops_.size() || hops_[p.value()] < 0) {
    return std::nullopt;
  }
  return hops_[p.value()];
}

std::optional<double> Overlay::query_delay_ms(PeerId p, Rng& rng) const {
  const auto hops = hops_to_nearest_holder(p);
  if (!hops.has_value()) return std::nullopt;  // timeout: no holder in TTL

  // A holder answers after its local lookup.  A proxy's query also
  // travels `hops` trusted links each way to the holder and back.
  double delay = rng.exponential(config_.local_lookup_ms);
  for (int h = 0; h < 2 * *hops; ++h) {
    delay += rng.exponential(config_.hop_delay_ms);
  }
  return delay;
}

}  // namespace lexfor::anonp2p
