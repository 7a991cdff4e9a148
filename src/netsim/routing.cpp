#include "netsim/routing.h"

#include <algorithm>
#include <utility>

namespace lexfor::netsim {
namespace {

// Node ids are dense vector indices, so they fit 32 bits in any
// simulation this side of 4 billion nodes; the pair key packs both.
[[nodiscard]] std::uint64_t pair_key(NodeId src, NodeId dst) noexcept {
  return (src.value() << 32) | (dst.value() & 0xFFFFFFFFull);
}

}  // namespace

std::vector<NodeId> shortest_path(const AdjacencyList& adj, NodeId src,
                                  NodeId dst) {
  if (src == dst) return {src};

  std::vector<NodeId> parent(adj.size());
  std::vector<bool> seen(adj.size(), false);
  std::vector<NodeId> frontier;
  frontier.reserve(adj.size());
  frontier.push_back(src);
  seen[src.value()] = true;

  for (std::size_t i = 0; i < frontier.size(); ++i) {
    const NodeId u = frontier[i];
    for (const Adjacency& a : adj[u.value()]) {
      if (seen[a.neighbor.value()]) continue;
      seen[a.neighbor.value()] = true;
      parent[a.neighbor.value()] = u;
      if (a.neighbor == dst) {
        std::vector<NodeId> path{dst};
        NodeId cur = dst;
        while (cur != src) {
          cur = parent[cur.value()];
          path.push_back(cur);
        }
        std::reverse(path.begin(), path.end());
        return path;
      }
      frontier.push_back(a.neighbor);
    }
  }
  return {};  // unreachable
}

RouteCache::PathRef RouteCache::acquire(NodeId src, NodeId dst,
                                        const AdjacencyList& adj) {
  const std::uint64_t key = pair_key(src, dst);
  const auto it = lookup_.find(key);
  if (it != lookup_.end()) {
    if (it->second != kNull) add_ref(it->second);
    return it->second;
  }

  std::vector<NodeId> hops = shortest_path(adj, src, dst);
  ++bfs_runs_;
  if (hops.empty()) {
    lookup_.emplace(key, kNull);
    return kNull;
  }
  const PathRef p = paths_.acquire();
  PathRec& rec = paths_[p];
  rec.hops = std::move(hops);
  rec.refs = 2;  // one for the lookup table, one for the caller
  lookup_.emplace(key, p);
  return p;
}

void RouteCache::add_ref(PathRef p) noexcept { ++paths_[p].refs; }

void RouteCache::release(PathRef p) noexcept {
  if (p == kNull) return;
  if (--paths_[p].refs == 0) paths_.release(p);
}

void RouteCache::invalidate() {
  for (const auto& [key, p] : lookup_) {
    if (p != kNull) release(p);
  }
  lookup_.clear();
}

}  // namespace lexfor::netsim
