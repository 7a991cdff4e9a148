// Anonymous P2P overlay (OneSwarm-style), the substrate for §IV.A.
//
// In OneSwarm-like systems, peers exchange data only with *trusted*
// neighbors; a query for content is answered directly by a neighbor that
// holds it, or forwarded through trusted links to someone who does, with
// the neighbor acting as a proxy.  The investigator (Prusty/Levine/
// Liberatore, CCS'11; paper §IV.A) exploits the timing difference:
// direct sources answer after a local lookup, proxies add per-hop
// forwarding delay.  The overlay provides ground truth (who really holds
// the file) so classification accuracy can be measured.

#pragma once

#include <optional>
#include <vector>

#include "util/ids.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/status.h"

namespace lexfor::anonp2p {

struct OverlayConfig {
  std::size_t num_peers = 64;
  // Each peer gets ~this many trusted links (the graph is kept connected
  // by a ring backbone plus random chords).
  std::size_t trusted_degree = 4;
  // Fraction of peers holding the target file.
  double file_popularity = 0.15;
  // Mean local lookup delay when a peer answers from its own store.
  double local_lookup_ms = 20.0;
  // Mean one-way per-hop forwarding delay on a trusted link.
  double hop_delay_ms = 60.0;
  // Queries are not forwarded beyond this many hops (TTL).
  int max_forward_hops = 3;
  std::uint64_t seed = 42;
};

class Overlay {
 public:
  explicit Overlay(OverlayConfig config);

  [[nodiscard]] std::size_t peer_count() const noexcept {
    return adjacency_.size();
  }
  [[nodiscard]] const std::vector<PeerId>& neighbors(PeerId p) const;
  [[nodiscard]] bool holds_file(PeerId p) const;
  [[nodiscard]] std::size_t holder_count() const;

  // Hop distance from `p` to its nearest file holder over trusted links
  // (0 if p itself holds it); nullopt if none within the TTL.  Read
  // from a table the constructor fills, so a lookup does no search.
  [[nodiscard]] std::optional<int> hops_to_nearest_holder(PeerId p) const;

  // Simulates one query sent by the investigator to neighbor `p` and
  // returns the response delay in milliseconds, or nullopt when the
  // query times out (no holder within TTL).  Stochastic: each call draws
  // fresh lookup/forwarding delays from `rng`.
  [[nodiscard]] std::optional<double> query_delay_ms(PeerId p, Rng& rng) const;

  [[nodiscard]] const OverlayConfig& config() const noexcept { return config_; }

 private:
  OverlayConfig config_;
  std::vector<std::vector<PeerId>> adjacency_;
  std::vector<bool> has_file_;
  // hops_to_nearest_holder per peer, -1 where no holder is within TTL.
  std::vector<int> hops_;
};

}  // namespace lexfor::anonp2p
