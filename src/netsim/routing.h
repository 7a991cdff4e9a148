// BFS shortest paths, memoized per (src, dst) pair with shared,
// reference-counted path records.
//
// shortest_path() is the one BFS: Network::shortest_path calls it
// directly, and RouteCache runs it once per (src, dst) pair per
// topology version.  Each materialized path is shared by every packet on
// that pair through a reference-counted util::Pool handle.  A packet in
// flight holds a reference, so a topology change (which invalidates the
// cache) never yanks a path out from under it: the old path survives
// until its last packet delivers or drops, preserving the frozen-path
// drop semantics the accounting tests lock down.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "util/ids.h"
#include "util/pool.h"

namespace lexfor::netsim {

// One directed edge of the adjacency structure Network maintains.
struct Adjacency {
  NodeId neighbor;
  std::uint32_t link_index;
};
using AdjacencyList = std::vector<std::vector<Adjacency>>;

// The BFS path src -> dst (inclusive of both endpoints), or empty if
// dst is unreachable.  FIFO frontier in adjacency order, parent = first
// discoverer, so ties on length resolve the same way on every run.
// Both ids must index `adj`.
[[nodiscard]] std::vector<NodeId> shortest_path(const AdjacencyList& adj,
                                                NodeId src, NodeId dst);

class RouteCache {
 public:
  using PathRef = std::uint32_t;
  static constexpr PathRef kNull = ~PathRef{0};

  // Returns a shared path src -> dst (inclusive of both endpoints), or
  // kNull if dst is unreachable.  The caller owns one reference on the
  // returned path and must release() it.  Unreachability is memoized
  // too, so a partitioned flow retrying every emission costs O(1) per
  // retry, not one BFS walk each.
  [[nodiscard]] PathRef acquire(NodeId src, NodeId dst,
                                const AdjacencyList& adj);

  void add_ref(PathRef p) noexcept;
  void release(PathRef p) noexcept;

  [[nodiscard]] const std::vector<NodeId>& hops(PathRef p) const noexcept {
    return paths_[p].hops;
  }

  // Topology changed: drop the (src, dst) lookup's references.  Paths
  // still referenced by in-flight packets survive until their refcounts
  // drain.
  void invalidate();

  // --- introspection (tests, A-NETSIM gate) -------------------------
  [[nodiscard]] std::size_t cached_pairs() const noexcept {
    return lookup_.size();
  }
  [[nodiscard]] std::size_t live_paths() const noexcept {
    return paths_.live();
  }
  [[nodiscard]] std::size_t path_slots() const noexcept {
    return paths_.capacity();
  }
  [[nodiscard]] std::uint64_t bfs_runs() const noexcept { return bfs_runs_; }

 private:
  struct PathRec {
    std::vector<NodeId> hops;
    std::uint32_t refs = 0;
  };

  util::Pool<PathRec> paths_;
  // (src << 32 | dst) -> PathRef (or kNull for memoized unreachability);
  // each non-null entry holds one reference.
  std::unordered_map<std::uint64_t, PathRef> lookup_;
  std::uint64_t bfs_runs_ = 0;
};

}  // namespace lexfor::netsim
