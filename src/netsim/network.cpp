#include "netsim/network.h"

#include <limits>
#include <sstream>

#include "obs/obs.h"

namespace lexfor::netsim {

NodeId Network::add_node(std::string name) {
  const NodeId id{nodes_.size()};
  nodes_.push_back(NodeInfo{id, std::move(name)});
  adjacency_.emplace_back();
  return id;
}

Result<LinkId> Network::connect(NodeId a, NodeId b, LinkConfig config) {
  if (!valid_node(a) || !valid_node(b)) {
    return NotFound("connect: unknown node");
  }
  if (a == b) {
    return InvalidArgument("connect: self-loops are not allowed");
  }
  for (const auto& adj : adjacency_[a.value()]) {
    if (adj.neighbor == b) {
      return AlreadyExists("connect: nodes already linked");
    }
  }
  const LinkId id{links_.size()};
  links_.push_back(LinkInfo{id, a, b, config});
  const auto link_index = static_cast<std::uint32_t>(links_.size() - 1);
  adjacency_[a.value()].push_back({b, link_index});
  adjacency_[b.value()].push_back({a, link_index});
  routes_.invalidate();  // memoized routes describe the old topology
  return id;
}

Status Network::disconnect(LinkId link) {
  if (!valid_link(link)) {
    return NotFound("disconnect: unknown link");
  }
  const LinkInfo& info = links_[link.value()];
  bool removed = false;
  for (const NodeId end : {info.a, info.b}) {
    auto& adj = adjacency_[end.value()];
    for (auto it = adj.begin(); it != adj.end(); ++it) {
      if (it->link_index == link.value()) {
        adj.erase(it);
        removed = true;
        break;
      }
    }
  }
  if (!removed) {
    return FailedPrecondition("disconnect: link already removed");
  }
  // Erase all per-link state with the link: the transmitter's busy time
  // and any taps.  Without this a churn simulation leaks one map entry
  // per removed link, and a stale tap entry lingers forever for a link
  // that can never carry traffic again.
  link_busy_until_.erase(link);
  link_taps_.erase(link);
  routes_.invalidate();
  LEXFOR_OBS_EVENT(obs::Level::kInfo, "netsim", "link_removed",
                   "link=" + std::to_string(link.value()), events_.now());
  return Status::Ok();
}

std::optional<std::string> Network::node_name(NodeId id) const {
  if (!valid_node(id)) return std::nullopt;
  return nodes_[id.value()].name;
}

std::vector<NodeId> Network::shortest_path(NodeId src, NodeId dst) const {
  if (!valid_node(src) || !valid_node(dst)) return {};
  return netsim::shortest_path(adjacency_, src, dst);
}

Result<PacketId> Network::send(FlowId flow, PacketHeader header, Bytes payload) {
  if (!valid_node(header.src) || !valid_node(header.dst)) {
    return InvalidArgument("send: unknown endpoint");
  }
  const RouteCache::PathRef route =
      routes_.acquire(header.src, header.dst, adjacency_);
  if (route == RouteCache::kNull) {
    std::ostringstream os;
    os << "send: no route from " << header.src << " to " << header.dst;
    return NotFound(os.str());
  }

  if (payload.size() >
      static_cast<std::size_t>(std::numeric_limits<std::uint32_t>::max())) {
    routes_.release(route);
    return InvalidArgument(
        "send: payload exceeds the 32-bit framing limit of "
        "PacketHeader::payload_size");
  }

  const PacketStore::Ref ref = store_.acquire();
  PacketStore::Meta& meta = store_.meta(ref);
  meta.id = packet_ids_.next();
  meta.flow = flow;
  meta.header = header;
  meta.header.payload_size = static_cast<std::uint32_t>(payload.size());
  meta.created_at = events_.now();
  store_.payload(ref) = std::move(payload);
  ++sent_;
  LEXFOR_OBS_COUNTER_ADD("netsim.packets_sent", 1);

  const PacketId id = meta.id;
  // First hop is scheduled immediately; subsequent hops chain.  The
  // callback captures three words — handles, not payloads.
  events_.schedule_in(SimDuration::from_us(0),
                      [this, ref, route] { deliver_hop(ref, route, 0); });
  return id;
}

void Network::retire(PacketStore::Ref ref,
                     RouteCache::PathRef route) noexcept {
  store_.release(ref);
  routes_.release(route);
}

void Network::deliver_hop(PacketStore::Ref ref, RouteCache::PathRef route,
                          std::uint32_t pos) {
  const std::vector<NodeId>& path = routes_.hops(route);
  const NodeId here = path[pos];
  if (pos + 1 >= path.size()) {
    // Arrived.
    ++delivered_;
    LEXFOR_OBS_COUNTER_ADD("netsim.packets_delivered", 1);
    LEXFOR_OBS_HISTOGRAM_RECORD(
        "netsim.e2e_latency_us",
        (events_.now() - store_.meta(ref).created_at).us);
    LEXFOR_OBS_EVENT(obs::Level::kDebug, "netsim", "delivered",
                     "packet=" + std::to_string(store_.meta(ref).id.value()),
                     events_.now());
    const auto it = handlers_.find(here);
    if (it != handlers_.end() && it->second) {
      store_.with_packet(ref, [&](const Packet& packet) {
        it->second(packet, events_.now());
      });
    }
    retire(ref, route);
    return;
  }

  const NodeId next = path[pos + 1];
  // Locate the link between here and next.
  const LinkInfo* link = nullptr;
  for (const auto& adj : adjacency_[here.value()]) {
    if (adj.neighbor == next) {
      link = &links_[adj.link_index];
      break;
    }
  }
  if (link == nullptr) {
    // The link vanished mid-flight (disconnect() raced the packet).
    // Count the loss like any other drop so the accounting invariant
    // sent == delivered + dropped survives topology changes.
    ++dropped_;
    LEXFOR_OBS_COUNTER_ADD("netsim.packets_dropped", 1);
    LEXFOR_OBS_EVENT(obs::Level::kDebug, "netsim", "dropped_link_vanished",
                     "packet=" + std::to_string(store_.meta(ref).id.value()),
                     events_.now());
    retire(ref, route);
    return;
  }

  // Loss.
  if (link->config.drop_probability > 0.0 &&
      rng_.bernoulli(link->config.drop_probability)) {
    ++dropped_;
    LEXFOR_OBS_COUNTER_ADD("netsim.packets_dropped", 1);
    LEXFOR_OBS_EVENT(obs::Level::kDebug, "netsim", "dropped",
                     "packet=" + std::to_string(store_.meta(ref).id.value()),
                     events_.now());
    retire(ref, route);
    return;
  }

  // Delay = queueing wait (bandwidth-limited links transmit one packet
  // at a time, FIFO) + serialization + propagation + jitter.
  SimDuration delay = link->config.latency;
  if (link->config.jitter.us > 0) {
    delay = delay + SimDuration::from_us(static_cast<std::int64_t>(
                        rng_.uniform(static_cast<std::uint64_t>(
                            link->config.jitter.us))));
  }
  if (link->config.bandwidth_bytes_per_sec > 0.0) {
    const double tx_sec = static_cast<double>(store_.meta(ref).wire_size()) /
                          link->config.bandwidth_bytes_per_sec;
    const SimDuration tx = SimDuration::from_sec(tx_sec);
    SimTime& busy_until = link_busy_until_[link->id];
    const SimTime start =
        busy_until > events_.now() ? busy_until : events_.now();
    busy_until = start + tx;
    // wait-in-queue + transmission, on top of propagation/jitter.
    delay = delay + (start - events_.now()) + tx;
  }

  LEXFOR_OBS_HISTOGRAM_RECORD("netsim.hop_delay_us", delay.us);
  const LinkId link_id = link->id;
  events_.schedule_in(
      delay, [this, ref, route, pos, link_id, here, next] {
        // Taps fire on traversal completion (the capture point).
        const auto taps = link_taps_.find(link_id);
        if (taps != link_taps_.end()) {
          store_.with_packet(ref, [&](const Packet& packet) {
            const TapEvent ev{packet, link_id, here, next, events_.now()};
            for (const auto& t : taps->second) t(ev);
          });
        }
        deliver_hop(ref, route, pos + 1);
      });
}

Status Network::set_receive_handler(NodeId node, ReceiveHandler handler) {
  if (!valid_node(node)) return NotFound("set_receive_handler: unknown node");
  handlers_[node] = std::move(handler);
  return Status::Ok();
}

Status Network::add_link_tap(LinkId link, TapFn tap) {
  if (!valid_link(link)) {
    return NotFound("add_link_tap: unknown link");
  }
  link_taps_[link].push_back(std::move(tap));
  return Status::Ok();
}

Status Network::add_node_tap(NodeId node, TapFn tap) {
  if (!valid_node(node)) return NotFound("add_node_tap: unknown node");
  bool any = false;
  for (const auto& adj : adjacency_[node.value()]) {
    link_taps_[links_[adj.link_index].id].push_back(tap);
    any = true;
  }
  if (!any) {
    return FailedPrecondition("add_node_tap: node has no links to tap");
  }
  return Status::Ok();
}

}  // namespace lexfor::netsim
