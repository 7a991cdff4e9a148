// The packet network: nodes, links, shortest-path routing, taps.
//
// A deliberately small but honest network model: nodes joined by
// bidirectional links with latency, jitter and loss; packets are routed
// hop-by-hop along BFS shortest paths; observers ("taps") attached to
// links or nodes see traffic as it passes — taps are where the capture
// module plugs in.  Deterministic given the seed.
//
// ISSUE 8 made the hot path data-oriented: in-flight packets live in a
// PacketStore (SoA slot pool, 32-bit handles), routes come from a
// RouteCache (one BFS per (src, dst) pair, shared refcounted paths,
// invalidated on connect/disconnect), and hop callbacks capture only
// handles — so scheduling a hop moves a few words, never a payload.
// The observable model is unchanged: a packet's path is frozen at
// send() time, a link removed under an in-flight packet drops it (and
// the drop is counted, preserving sent == delivered + dropped), and
// every seeded run replays bit-identically.

#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "netsim/event_queue.h"
#include "netsim/packet.h"
#include "netsim/packet_store.h"
#include "netsim/routing.h"
#include "util/ids.h"
#include "util/rng.h"
#include "util/status.h"

namespace lexfor::netsim {

struct LinkConfig {
  SimDuration latency = SimDuration::from_ms(10.0);
  SimDuration jitter = SimDuration::from_ms(0.0);  // uniform [0, jitter)
  double drop_probability = 0.0;
  double bandwidth_bytes_per_sec = 0.0;  // 0 = infinite
};

struct NodeInfo {
  NodeId id;
  std::string name;
};

struct LinkInfo {
  LinkId id;
  NodeId a;
  NodeId b;
  LinkConfig config;
};

// A tap observes every packet traversing a link, with direction.
struct TapEvent {
  const Packet& packet;
  LinkId link;
  NodeId from;
  NodeId to;
  SimTime at;
};

class Network {
 public:
  using ReceiveHandler = std::function<void(const Packet&, SimTime)>;
  using TapFn = std::function<void(const TapEvent&)>;

  explicit Network(std::uint64_t seed = 1) : rng_(seed) {}

  // --- topology -----------------------------------------------------
  NodeId add_node(std::string name);
  Result<LinkId> connect(NodeId a, NodeId b, LinkConfig config = {});
  // Removes a link from the topology (link failure / tap teardown).
  // Packets already in flight that reach the vanished link are dropped
  // and counted, preserving sent == delivered + dropped.  All per-link
  // state (transmitter busy time, taps) is erased with the link, so a
  // topology-churn simulation holds its footprint flat.
  Status disconnect(LinkId link);

  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }
  [[nodiscard]] std::size_t link_count() const noexcept { return links_.size(); }
  [[nodiscard]] const std::vector<NodeInfo>& nodes() const noexcept {
    return nodes_;
  }
  [[nodiscard]] std::optional<std::string> node_name(NodeId id) const;

  // --- traffic ------------------------------------------------------
  // Sends a packet from header.src to header.dst along the shortest
  // path.  Returns the packet id, or an error if no route exists.  The
  // route is resolved through the memoized RouteCache and frozen for
  // this packet's lifetime.
  Result<PacketId> send(FlowId flow, PacketHeader header, Bytes payload);

  // Registers a handler invoked when a node receives a packet addressed
  // to it.  One handler per node; a later call replaces the earlier one.
  Status set_receive_handler(NodeId node, ReceiveHandler handler);

  // Attaches a tap to a link; all taps fire for every traversal.
  Status add_link_tap(LinkId link, TapFn tap);
  // Attaches a tap to every link incident to `node` (an "ISP tap" on
  // everything entering/leaving the node).
  Status add_node_tap(NodeId node, TapFn tap);

  // --- simulation control --------------------------------------------
  EventQueue& clock() noexcept { return events_; }
  void run() { events_.run(); }
  void run_until(SimTime t) { events_.run_until(t); }
  [[nodiscard]] SimTime now() const noexcept { return events_.now(); }

  // --- statistics -----------------------------------------------------
  [[nodiscard]] std::uint64_t packets_sent() const noexcept { return sent_; }
  [[nodiscard]] std::uint64_t packets_delivered() const noexcept {
    return delivered_;
  }
  [[nodiscard]] std::uint64_t packets_dropped() const noexcept {
    return dropped_;
  }

  // The BFS path src -> dst (empty if unreachable or unknown).  send()
  // routes through the RouteCache, which memoizes this same BFS.
  [[nodiscard]] std::vector<NodeId> shortest_path(NodeId src, NodeId dst) const;

  // --- introspection (tests, A-NETSIM gate) ---------------------------
  [[nodiscard]] const RouteCache& route_cache() const noexcept {
    return routes_;
  }
  [[nodiscard]] const PacketStore& packet_store() const noexcept {
    return store_;
  }
  [[nodiscard]] std::size_t link_tap_entries() const noexcept {
    return link_taps_.size();
  }
  [[nodiscard]] std::size_t busy_link_entries() const noexcept {
    return link_busy_until_.size();
  }

 private:
  [[nodiscard]] bool valid_node(NodeId id) const noexcept {
    return id.valid() && id.value() < nodes_.size();
  }
  [[nodiscard]] bool valid_link(LinkId id) const noexcept {
    return id.valid() && id.value() < links_.size();
  }

  void deliver_hop(PacketStore::Ref ref, RouteCache::PathRef route,
                   std::uint32_t pos);
  // Releases a packet's slot and its route reference (delivery or drop).
  void retire(PacketStore::Ref ref, RouteCache::PathRef route) noexcept;

  std::vector<NodeInfo> nodes_;
  std::vector<LinkInfo> links_;
  AdjacencyList adjacency_;
  std::unordered_map<NodeId, ReceiveHandler> handlers_;
  std::unordered_map<LinkId, std::vector<TapFn>> link_taps_;
  // FIFO transmitter state for bandwidth-limited links.
  std::unordered_map<LinkId, SimTime> link_busy_until_;

  EventQueue events_;
  Rng rng_;
  IdGenerator<PacketId> packet_ids_;
  PacketStore store_;
  RouteCache routes_;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace lexfor::netsim
