#include "netsim/routing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

namespace lexfor::netsim {
namespace {

// An undirected adjacency over `n` nodes; link i is edges[i], and each
// endpoint lists its links in the order given.
AdjacencyList undirected(
    std::size_t n,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& edges) {
  AdjacencyList adj(n);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const auto [a, b] = edges[i];
    const auto link = static_cast<std::uint32_t>(i);
    adj[a].push_back(Adjacency{NodeId{b}, link});
    adj[b].push_back(Adjacency{NodeId{a}, link});
  }
  return adj;
}

std::vector<NodeId> ids(std::initializer_list<std::uint64_t> nodes) {
  std::vector<NodeId> out;
  for (const std::uint64_t n : nodes) out.push_back(NodeId{n});
  return out;
}

// A diamond 0 -- {1, 2} -- 3: two routes of two hops from 0 to 3.
AdjacencyList diamond() {
  return undirected(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
}

TEST(ShortestPathTest, TiesGoToTheFirstDiscoverer) {
  AdjacencyList adj = diamond();
  EXPECT_EQ(shortest_path(adj, NodeId{0}, NodeId{3}), ids({0, 1, 3}));
  // The same graph with node 0's links listed the other way round.
  std::reverse(adj[0].begin(), adj[0].end());
  EXPECT_EQ(shortest_path(adj, NodeId{0}, NodeId{3}), ids({0, 2, 3}));
}

TEST(ShortestPathTest, TrivialAndUnreachablePairs) {
  // 0 -- 1 -- 2, and 3 alone.
  const AdjacencyList adj = undirected(4, {{0, 1}, {1, 2}});
  EXPECT_EQ(shortest_path(adj, NodeId{1}, NodeId{1}), ids({1}));
  EXPECT_EQ(shortest_path(adj, NodeId{0}, NodeId{2}), ids({0, 1, 2}));
  EXPECT_EQ(shortest_path(adj, NodeId{2}, NodeId{0}), ids({2, 1, 0}));
  EXPECT_TRUE(shortest_path(adj, NodeId{0}, NodeId{3}).empty());
  EXPECT_TRUE(shortest_path(adj, NodeId{3}, NodeId{0}).empty());
}

TEST(RouteCacheTest, SharesOnePathPerPair) {
  const AdjacencyList adj = diamond();
  RouteCache cache;
  const RouteCache::PathRef a = cache.acquire(NodeId{0}, NodeId{3}, adj);
  const RouteCache::PathRef b = cache.acquire(NodeId{0}, NodeId{3}, adj);
  ASSERT_NE(a, RouteCache::kNull);
  EXPECT_EQ(a, b);
  EXPECT_EQ(cache.hops(a), shortest_path(adj, NodeId{0}, NodeId{3}));
  EXPECT_EQ(cache.bfs_runs(), 1u);
  EXPECT_EQ(cache.cached_pairs(), 1u);
  EXPECT_EQ(cache.live_paths(), 1u);

  // The lookup table keeps its own reference once the callers let go.
  cache.release(a);
  cache.release(b);
  EXPECT_EQ(cache.live_paths(), 1u);
  const RouteCache::PathRef c = cache.acquire(NodeId{0}, NodeId{3}, adj);
  EXPECT_EQ(c, a);
  EXPECT_EQ(cache.bfs_runs(), 1u);
  cache.release(c);

  cache.invalidate();
  EXPECT_EQ(cache.cached_pairs(), 0u);
  EXPECT_EQ(cache.live_paths(), 0u);
}

// A packet in flight keeps the path it was routed on: invalidation drops
// only the lookup's reference, and the slot is recycled after the last
// holder releases it.
TEST(RouteCacheTest, InvalidatedPathLivesUntilItsLastRelease) {
  AdjacencyList adj = diamond();
  RouteCache cache;
  const RouteCache::PathRef old_path =
      cache.acquire(NodeId{0}, NodeId{3}, adj);
  ASSERT_NE(old_path, RouteCache::kNull);

  std::reverse(adj[0].begin(), adj[0].end());
  cache.invalidate();
  EXPECT_EQ(cache.cached_pairs(), 0u);
  EXPECT_EQ(cache.live_paths(), 1u);
  EXPECT_EQ(cache.hops(old_path), ids({0, 1, 3}));

  const RouteCache::PathRef new_path =
      cache.acquire(NodeId{0}, NodeId{3}, adj);
  EXPECT_NE(new_path, old_path);
  EXPECT_EQ(cache.hops(new_path), ids({0, 2, 3}));
  EXPECT_EQ(cache.hops(old_path), ids({0, 1, 3}));
  EXPECT_EQ(cache.bfs_runs(), 2u);
  EXPECT_EQ(cache.live_paths(), 2u);

  cache.release(old_path);
  EXPECT_EQ(cache.live_paths(), 1u);
  cache.release(new_path);
  cache.invalidate();
  EXPECT_EQ(cache.live_paths(), 0u);

  // Both slots are free again; routing anew grows none.
  const std::size_t slots = cache.path_slots();
  EXPECT_EQ(slots, 2u);
  const RouteCache::PathRef again = cache.acquire(NodeId{3}, NodeId{0}, adj);
  EXPECT_EQ(cache.path_slots(), slots);
  cache.release(again);
}

TEST(RouteCacheTest, EachDirectionIsItsOwnPair) {
  // 0 -- 1 -- 2, and 3 alone.
  const AdjacencyList adj = undirected(4, {{0, 1}, {1, 2}});
  RouteCache cache;
  const RouteCache::PathRef there = cache.acquire(NodeId{0}, NodeId{2}, adj);
  const RouteCache::PathRef back = cache.acquire(NodeId{2}, NodeId{0}, adj);
  ASSERT_NE(there, RouteCache::kNull);
  ASSERT_NE(back, RouteCache::kNull);
  EXPECT_NE(there, back);
  EXPECT_EQ(cache.hops(there), ids({0, 1, 2}));
  EXPECT_EQ(cache.hops(back), ids({2, 1, 0}));

  // Unreachable in either direction: two memoized misses, no path.
  EXPECT_EQ(cache.acquire(NodeId{0}, NodeId{3}, adj), RouteCache::kNull);
  EXPECT_EQ(cache.acquire(NodeId{3}, NodeId{0}, adj), RouteCache::kNull);
  EXPECT_EQ(cache.acquire(NodeId{0}, NodeId{3}, adj), RouteCache::kNull);
  EXPECT_EQ(cache.bfs_runs(), 4u);
  EXPECT_EQ(cache.cached_pairs(), 4u);
  EXPECT_EQ(cache.live_paths(), 2u);
  cache.release(there);
  cache.release(back);
}

}  // namespace
}  // namespace lexfor::netsim
