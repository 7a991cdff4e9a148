#include "netsim/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace lexfor::netsim {
namespace {

// A linear topology: client -- isp -- server.
struct LineFixture {
  Network net{123};
  NodeId client = net.add_node("client");
  NodeId isp = net.add_node("isp");
  NodeId server = net.add_node("server");
  LineFixture() {
    LinkConfig cfg;
    cfg.latency = SimDuration::from_ms(10);
    (void)net.connect(client, isp, cfg).value();
    (void)net.connect(isp, server, cfg).value();
  }
};

TEST(NetworkTest, ConnectRejectsUnknownNodes) {
  Network net;
  const NodeId a = net.add_node("a");
  EXPECT_EQ(net.connect(a, NodeId{99}).status().code(), StatusCode::kNotFound);
}

TEST(NetworkTest, ConnectRejectsSelfLoop) {
  Network net;
  const NodeId a = net.add_node("a");
  EXPECT_EQ(net.connect(a, a).status().code(), StatusCode::kInvalidArgument);
}

TEST(NetworkTest, ConnectRejectsDuplicateLink) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  EXPECT_TRUE(net.connect(a, b).ok());
  EXPECT_EQ(net.connect(a, b).status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(net.connect(b, a).status().code(), StatusCode::kAlreadyExists);
}

TEST(NetworkTest, ShortestPathOnLine) {
  LineFixture f;
  const auto path = f.net.shortest_path(f.client, f.server);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], f.client);
  EXPECT_EQ(path[1], f.isp);
  EXPECT_EQ(path[2], f.server);
}

TEST(NetworkTest, ShortestPathPrefersFewerHops) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  const NodeId d = net.add_node("d");
  (void)net.connect(a, b).value();
  (void)net.connect(b, c).value();
  (void)net.connect(c, d).value();
  (void)net.connect(a, d).value();  // shortcut
  const auto path = net.shortest_path(a, d);
  EXPECT_EQ(path.size(), 2u);
}

TEST(NetworkTest, NoRouteReturnsEmptyPathAndSendFails) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");  // isolated
  EXPECT_TRUE(net.shortest_path(a, b).empty());
  PacketHeader h;
  h.src = a;
  h.dst = b;
  EXPECT_EQ(net.send(FlowId{1}, h, {}).status().code(), StatusCode::kNotFound);
}

TEST(NetworkTest, PacketDeliveredWithAccumulatedLatency) {
  LineFixture f;
  SimTime arrival;
  bool got = false;
  (void)f.net.set_receive_handler(f.server,
                                  [&](const Packet&, SimTime at) {
                                    arrival = at;
                                    got = true;
                                  });
  PacketHeader h;
  h.src = f.client;
  h.dst = f.server;
  ASSERT_TRUE(f.net.send(FlowId{1}, h, to_bytes("hello server")).ok());
  f.net.run();
  ASSERT_TRUE(got);
  EXPECT_EQ(arrival, SimTime::from_ms(20));  // two 10ms hops
  EXPECT_EQ(f.net.packets_delivered(), 1u);
}

TEST(NetworkTest, PayloadArrivesIntactWithSizeInHeader) {
  LineFixture f;
  Bytes received;
  std::uint32_t header_size = 0;
  (void)f.net.set_receive_handler(f.server, [&](const Packet& p, SimTime) {
    received = p.payload;
    header_size = p.header.payload_size;
  });
  PacketHeader h;
  h.src = f.client;
  h.dst = f.server;
  const Bytes payload = to_bytes("incriminating content");
  ASSERT_TRUE(f.net.send(FlowId{1}, h, payload).ok());
  f.net.run();
  EXPECT_EQ(received, payload);
  EXPECT_EQ(header_size, payload.size());
}

TEST(NetworkTest, LinkTapSeesTraversals) {
  LineFixture f;
  int tap_count = 0;
  // Tap every link at the ISP.
  ASSERT_TRUE(f.net
                  .add_node_tap(f.isp,
                                [&](const TapEvent& ev) {
                                  ++tap_count;
                                  EXPECT_TRUE(ev.from == f.isp ||
                                              ev.to == f.isp);
                                })
                  .ok());
  PacketHeader h;
  h.src = f.client;
  h.dst = f.server;
  ASSERT_TRUE(f.net.send(FlowId{1}, h, to_bytes("x")).ok());
  f.net.run();
  // The packet traverses client->isp and isp->server: both tapped.
  EXPECT_EQ(tap_count, 2);
}

TEST(NetworkTest, DropProbabilityLosesPackets) {
  Network net{7};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  cfg.drop_probability = 0.5;
  (void)net.connect(a, b, cfg).value();
  int received = 0;
  (void)net.set_receive_handler(b, [&](const Packet&, SimTime) { ++received; });
  PacketHeader h;
  h.src = a;
  h.dst = b;
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(net.send(FlowId{1}, h, {}).ok());
  }
  net.run();
  EXPECT_GT(received, 150);
  EXPECT_LT(received, 350);
  EXPECT_EQ(net.packets_dropped() + net.packets_delivered(), 500u);
}

TEST(NetworkTest, BandwidthAddsSerializationDelay) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  cfg.latency = SimDuration::from_ms(0);
  cfg.bandwidth_bytes_per_sec = 1000.0;  // 1 KB/s
  (void)net.connect(a, b, cfg).value();
  SimTime arrival;
  (void)net.set_receive_handler(b, [&](const Packet&, SimTime at) { arrival = at; });
  PacketHeader h;
  h.src = a;
  h.dst = b;
  ASSERT_TRUE(net.send(FlowId{1}, h, Bytes(960, 0)).ok());  // +40 hdr = 1000B
  net.run();
  EXPECT_NEAR(arrival.seconds(), 1.0, 0.01);
}

TEST(NetworkTest, JitterIsBoundedAndDeterministic) {
  auto run_once = [] {
    Network net{99};
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    LinkConfig cfg;
    cfg.latency = SimDuration::from_ms(10);
    cfg.jitter = SimDuration::from_ms(5);
    (void)net.connect(a, b, cfg).value();
    std::vector<double> arrivals;
    (void)net.set_receive_handler(b, [&](const Packet&, SimTime at) {
      arrivals.push_back(at.millis());
    });
    PacketHeader h;
    h.src = a;
    h.dst = b;
    for (int i = 0; i < 50; ++i) (void)net.send(FlowId{1}, h, {});
    net.run();
    return arrivals;
  };
  const auto a1 = run_once();
  const auto a2 = run_once();
  EXPECT_EQ(a1, a2);  // same seed, same timing
  for (const double ms : a1) {
    EXPECT_GE(ms, 10.0);
    EXPECT_LT(ms, 15.0);
  }
}

TEST(NetworkTest, NodeTapRequiresLinks) {
  Network net;
  const NodeId lonely = net.add_node("lonely");
  EXPECT_EQ(net.add_node_tap(lonely, [](const TapEvent&) {}).code(),
            StatusCode::kFailedPrecondition);
}

TEST(NetworkTest, NodeNamesResolve) {
  Network net;
  const NodeId a = net.add_node("alpha");
  EXPECT_EQ(net.node_name(a).value_or(""), "alpha");
  EXPECT_FALSE(net.node_name(NodeId{42}).has_value());
}

}  // namespace
}  // namespace lexfor::netsim

// --- FIFO queueing on bandwidth-limited links ----------------------------

namespace lexfor::netsim {
namespace {

TEST(QueueingTest, SimultaneousPacketsSerializeOnTheLink) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  cfg.latency = SimDuration::from_ms(0);
  cfg.bandwidth_bytes_per_sec = 1000.0;  // 1 KB/s
  (void)net.connect(a, b, cfg).value();

  std::vector<double> arrivals;
  (void)net.set_receive_handler(b, [&](const Packet&, SimTime at) {
    arrivals.push_back(at.seconds());
  });
  PacketHeader h;
  h.src = a;
  h.dst = b;
  // Three packets of 1000 wire bytes each, sent at the same instant.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(net.send(FlowId{1}, h, Bytes(960, 0)).ok());
  }
  net.run();
  ASSERT_EQ(arrivals.size(), 3u);
  std::sort(arrivals.begin(), arrivals.end());
  // First finishes at ~1s, second ~2s, third ~3s: the link is a FIFO
  // transmitter, not three parallel pipes.
  EXPECT_NEAR(arrivals[0], 1.0, 0.02);
  EXPECT_NEAR(arrivals[1], 2.0, 0.02);
  EXPECT_NEAR(arrivals[2], 3.0, 0.02);
}

TEST(QueueingTest, IdleLinkAddsNoQueueingDelay) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  cfg.latency = SimDuration::from_ms(5);
  cfg.bandwidth_bytes_per_sec = 1e6;
  (void)net.connect(a, b, cfg).value();
  SimTime arrival;
  (void)net.set_receive_handler(b, [&](const Packet&, SimTime at) { arrival = at; });
  PacketHeader h;
  h.src = a;
  h.dst = b;
  ASSERT_TRUE(net.send(FlowId{1}, h, Bytes(960, 0)).ok());
  net.run();
  // 5ms latency + 1ms tx.
  EXPECT_NEAR(arrival.millis(), 6.0, 0.2);
}

TEST(QueueingTest, UnlimitedLinksDoNotQueue) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  cfg.latency = SimDuration::from_ms(10);  // bandwidth 0 = infinite
  (void)net.connect(a, b, cfg).value();
  std::vector<double> arrivals;
  (void)net.set_receive_handler(b, [&](const Packet&, SimTime at) {
    arrivals.push_back(at.millis());
  });
  PacketHeader h;
  h.src = a;
  h.dst = b;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(net.send(FlowId{1}, h, Bytes(500, 0)).ok());
  net.run();
  ASSERT_EQ(arrivals.size(), 5u);
  for (const double ms : arrivals) EXPECT_NEAR(ms, 10.0, 1e-6);
}

TEST(NetworkTest, DisconnectRejectsUnknownAndDoubleRemoval) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const LinkId link = net.connect(a, b).value();
  EXPECT_EQ(net.disconnect(LinkId{99}).code(), StatusCode::kNotFound);
  EXPECT_TRUE(net.disconnect(link).ok());
  EXPECT_EQ(net.disconnect(link).code(), StatusCode::kFailedPrecondition);
  // Routing no longer sees the removed link.
  EXPECT_TRUE(net.shortest_path(a, b).empty());
}

TEST(NetworkTest, MidFlightLinkRemovalCountsAsDrop) {
  LineFixture f;  // client -- isp -- server, 10ms per hop
  const LinkId last_hop = LinkId{1};  // isp--server, second link created
  PacketHeader h;
  h.src = f.client;
  h.dst = f.server;
  ASSERT_TRUE(f.net.send(FlowId{1}, h, to_bytes("doomed")).ok());
  // Sever the second link while the packet is still crossing the first
  // hop: the relay's next-hop lookup at t=10ms must find it gone.
  f.net.run_until(SimTime::from_ms(5));
  ASSERT_TRUE(f.net.disconnect(last_hop).ok());
  f.net.run();
  EXPECT_EQ(f.net.packets_sent(), 1u);
  EXPECT_EQ(f.net.packets_delivered(), 0u);
  EXPECT_EQ(f.net.packets_dropped(), 1u);
}

TEST(NetworkTest, AccountingInvariantHoldsOnLossyTopologyWithLinkRemoval) {
  // sent == delivered + dropped must survive the combination of random
  // loss and a link removed while traffic is in flight.
  Network net{11};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  LinkConfig lossy;
  lossy.latency = SimDuration::from_ms(10);
  lossy.drop_probability = 0.3;
  (void)net.connect(a, b, lossy).value();
  const LinkId bc = net.connect(b, c, lossy).value();
  PacketHeader h;
  h.src = a;
  h.dst = c;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(net.send(FlowId{1}, h, to_bytes("x")).ok());
  }
  // Remove the b--c link while the burst is still on the first hop:
  // every survivor of a--b then reaches a vanished link at t=10ms and
  // must be counted.
  net.run_until(SimTime::from_ms(5));
  ASSERT_TRUE(net.disconnect(bc).ok());
  net.run();
  EXPECT_EQ(net.packets_sent(), 200u);
  EXPECT_GT(net.packets_dropped(), 0u);
  EXPECT_EQ(net.packets_delivered() + net.packets_dropped(),
            net.packets_sent());
  // Nothing can have been delivered: the only path to c was severed
  // before any packet could complete the second 10ms hop.
  EXPECT_EQ(net.packets_delivered(), 0u);
}

TEST(NetworkTest, ChurnHoldsPerLinkStateFlat) {
  // Pre-ISSUE-8, link_busy_until_ and link_taps_ were never erased on
  // disconnect: a churn loop leaked one map entry per removed link.
  Network net{3};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  LinkConfig cfg;
  cfg.latency = SimDuration::from_ms(1);
  cfg.bandwidth_bytes_per_sec = 1e6;  // populates the busy map
  PacketHeader h;
  h.src = a;
  h.dst = b;
  for (int round = 0; round < 100; ++round) {
    const LinkId link = net.connect(a, b, cfg).value();
    ASSERT_TRUE(net.add_link_tap(link, [](const TapEvent&) {}).ok());
    ASSERT_TRUE(net.send(FlowId{1}, h, to_bytes("x")).ok());
    net.run();
    ASSERT_TRUE(net.disconnect(link).ok());
    ASSERT_LE(net.busy_link_entries(), 1u) << "round " << round;
    ASSERT_LE(net.link_tap_entries(), 1u) << "round " << round;
  }
  EXPECT_EQ(net.busy_link_entries(), 0u);
  EXPECT_EQ(net.link_tap_entries(), 0u);
  EXPECT_EQ(net.packets_delivered(), 100u);
}

TEST(NetworkTest, TapOnReconnectedLinkFiresExactlyOnce) {
  // A stale tap entry from a removed link must not double-fire when a
  // new link between the same nodes is tapped again.
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const LinkId first = net.connect(a, b).value();
  int fires = 0;
  ASSERT_TRUE(net.add_link_tap(first, [&](const TapEvent&) { ++fires; }).ok());
  ASSERT_TRUE(net.disconnect(first).ok());
  const LinkId second = net.connect(a, b).value();
  ASSERT_TRUE(net.add_link_tap(second, [&](const TapEvent&) { ++fires; }).ok());
  PacketHeader h;
  h.src = a;
  h.dst = b;
  ASSERT_TRUE(net.send(FlowId{1}, h, to_bytes("once")).ok());
  net.run();
  EXPECT_EQ(fires, 1);
}

TEST(NetworkTest, RouteCacheMemoizesAndInvalidates) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  (void)net.connect(a, b).value();
  const LinkId bc = net.connect(b, c).value();
  PacketHeader h;
  h.src = a;
  h.dst = c;
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(net.send(FlowId{1}, h, to_bytes("x")).ok());
  }
  net.run();
  // One BFS serves all 50 packets on the same (src, dst) pair.
  EXPECT_EQ(net.route_cache().bfs_runs(), 1u);
  EXPECT_EQ(net.route_cache().cached_pairs(), 1u);

  // Topology change invalidates; the next send reroutes from scratch.
  ASSERT_TRUE(net.disconnect(bc).ok());
  EXPECT_EQ(net.route_cache().cached_pairs(), 0u);
  (void)net.connect(a, c).value();
  ASSERT_TRUE(net.send(FlowId{1}, h, to_bytes("y")).ok());
  net.run();
  EXPECT_EQ(net.packets_delivered(), 51u);
  EXPECT_EQ(net.route_cache().bfs_runs(), 2u);
}

TEST(NetworkTest, UnreachabilityIsMemoizedWithoutLeaking) {
  Network net;
  const NodeId a = net.add_node("a");
  const NodeId island = net.add_node("island");
  PacketHeader h;
  h.src = a;
  h.dst = island;
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(net.send(FlowId{1}, h, to_bytes("no")).ok());
  }
  // The no-route answer is cached (one BFS), and refused sends pin no
  // packet slots or path records.
  EXPECT_EQ(net.route_cache().bfs_runs(), 1u);
  EXPECT_EQ(net.route_cache().live_paths(), 0u);
  EXPECT_EQ(net.packet_store().live(), 0u);
  EXPECT_EQ(net.packets_sent(), 0u);
}

// Sends one packet on every ordered pair of `nodes` (each source to
// every other node) and checks that the hops each packet crosses are
// exactly shortest_path(src, dst).  `crossed` maps packet id to hops;
// the caller's taps on every live link fill it.  Returns the number of
// pairs that had a route.
std::size_t expect_every_pair_routes_along_shortest_path(
    Network& net, const std::vector<NodeId>& nodes,
    std::map<std::uint64_t, std::vector<NodeId>>& crossed) {
  crossed.clear();
  std::map<std::uint64_t, std::vector<NodeId>> expected;  // packet id
  for (const NodeId src : nodes) {
    for (const NodeId dst : nodes) {
      if (src == dst) continue;
      PacketHeader h;
      h.src = src;
      h.dst = dst;
      const auto id = net.send(FlowId{1}, h, to_bytes("route"));
      const std::vector<NodeId> path = net.shortest_path(src, dst);
      EXPECT_EQ(id.ok(), !path.empty()) << src << " -> " << dst;
      if (id.ok()) expected[id.value().value()] = path;
    }
  }
  net.run();
  EXPECT_EQ(crossed, expected);
  return expected.size();
}

// Memoized routing must pick the same route as the BFS on every pair,
// including pairs whose routes tie on length (in a grid, every pair off
// one row and one column), and again after a link is removed and
// restored, which moves it to the end of both endpoints' adjacency
// lists and so can change how ties break.
TEST(NetworkTest, SendRoutesEveryPairAlongShortestPath) {
  Network net{9};
  constexpr std::size_t kRows = 3;
  constexpr std::size_t kCols = 4;
  std::vector<NodeId> nodes;
  for (std::size_t i = 0; i < kRows * kCols; ++i) {
    nodes.push_back(net.add_node("grid-" + std::to_string(i)));
  }
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (i % kCols + 1 < kCols) {
      ASSERT_TRUE(net.connect(nodes[i], nodes[i + 1]).ok());
    }
    if (i + kCols < nodes.size()) {
      ASSERT_TRUE(net.connect(nodes[i], nodes[i + kCols]).ok());
    }
  }

  // The topology has ties: some pair has two shortest routes, counted
  // by BFS layers over the adjacency that one-hop routes reveal.
  std::size_t tied_pairs = 0;
  for (const NodeId src : nodes) {
    std::vector<std::size_t> dist(nodes.size());
    std::vector<std::uint64_t> routes(nodes.size(), 0);
    for (const NodeId v : nodes) {
      dist[v.value()] = net.shortest_path(src, v).size();
    }
    std::vector<NodeId> by_dist = nodes;
    std::sort(by_dist.begin(), by_dist.end(), [&](NodeId a, NodeId b) {
      return dist[a.value()] < dist[b.value()];
    });
    routes[src.value()] = 1;
    for (const NodeId v : by_dist) {
      for (const NodeId u : nodes) {
        if (dist[u.value()] + 1 == dist[v.value()] &&
            net.shortest_path(u, v).size() == 2) {
          routes[v.value()] += routes[u.value()];
        }
      }
      if (routes[v.value()] > 1) ++tied_pairs;
    }
  }
  ASSERT_GT(tied_pairs, 0u);

  std::map<std::uint64_t, std::vector<NodeId>> crossed;  // packet id
  std::map<std::pair<NodeId, NodeId>, LinkId> link_between;
  const auto tap = [&](const TapEvent& ev) {
    std::vector<NodeId>& hops = crossed[ev.packet.id.value()];
    if (hops.empty()) hops.push_back(ev.from);
    EXPECT_EQ(hops.back(), ev.from);
    hops.push_back(ev.to);
    link_between[{ev.from, ev.to}] = ev.link;
  };
  for (std::size_t l = 0; l < net.link_count(); ++l) {
    ASSERT_TRUE(net.add_link_tap(LinkId{l}, tap).ok());
  }
  const std::size_t pairs = nodes.size() * (nodes.size() - 1);
  EXPECT_EQ(expect_every_pair_routes_along_shortest_path(net, nodes, crossed),
            pairs);

  // Remove the first link of the last node's route to the first, then
  // restore it.
  const std::vector<NodeId> route =
      net.shortest_path(nodes.back(), nodes.front());
  ASSERT_GE(route.size(), 2u);
  ASSERT_TRUE(net.disconnect(link_between.at({route[0], route[1]})).ok());
  expect_every_pair_routes_along_shortest_path(net, nodes, crossed);

  const LinkId restored = net.connect(route[0], route[1]).value();
  ASSERT_TRUE(net.add_link_tap(restored, tap).ok());
  EXPECT_EQ(expect_every_pair_routes_along_shortest_path(net, nodes, crossed),
            pairs);
  EXPECT_EQ(net.packets_sent(), net.packets_delivered());
}

TEST(NetworkTest, PacketSlotsRecycleAcrossBursts) {
  LineFixture f;
  PacketHeader h;
  h.src = f.client;
  h.dst = f.server;
  for (int burst = 0; burst < 10; ++burst) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(f.net.send(FlowId{1}, h, to_bytes("burst")).ok());
    }
    f.net.run();
  }
  // All 80 packets flowed through at most 8 concurrently-live slots.
  EXPECT_EQ(f.net.packets_delivered(), 80u);
  EXPECT_EQ(f.net.packet_store().live(), 0u);
  EXPECT_LE(f.net.packet_store().capacity(), 8u);
}

}  // namespace
}  // namespace lexfor::netsim
