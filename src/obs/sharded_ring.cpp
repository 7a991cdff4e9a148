#include "obs/sharded_ring.h"

#include <algorithm>
#include <utility>

namespace lexfor::obs {
namespace {

std::uint64_t next_ring_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// Per-thread shard cache: (ring id -> shard) pairs, looked up linearly
// (a thread touches a handful of rings; the process-wide tracer's ring
// is almost always entry 0).  Keyed by the ring's process-unique id,
// never by address, so an entry for a destroyed ring can never alias a
// newer one — stale entries are simply never matched again.
struct ShardCacheEntry {
  std::uint64_t ring_id;
  EventRing* shard;
  std::shared_ptr<std::atomic<bool>> held;
};

// At thread exit, hands every shard this thread holds back to its ring.
// Only the shared flag is touched, so a ring that is already gone is
// never dereferenced.
struct ShardCache {
  std::vector<ShardCacheEntry> entries;
  ~ShardCache() {
    for (const ShardCacheEntry& e : entries) {
      e.held->store(false, std::memory_order_release);
    }
  }
};

thread_local ShardCache t_shard_cache;

}  // namespace

ShardedEventRing::ShardedEventRing(std::size_t shard_capacity)
    : id_(next_ring_id()),
      shard_capacity_(shard_capacity == 0 ? 1 : shard_capacity) {}

EventRing& ShardedEventRing::shard_for_this_thread() {
  for (const ShardCacheEntry& entry : t_shard_cache.entries) {
    if (entry.ring_id == id_) return *entry.shard;
  }
  Shard* shard = nullptr;
  {
    const std::scoped_lock lock(register_mu_);
    for (Shard& s : shards_) {
      // An exited thread's shard, unless full; this thread's pushes
      // may still wrap it (see sharded_ring.h).
      if (!s.held->load(std::memory_order_acquire) &&
          s.ring.size() < s.ring.capacity()) {
        s.held->store(true, std::memory_order_relaxed);
        shard = &s;
        break;
      }
    }
    if (shard == nullptr) shard = &shards_.emplace_back(shard_capacity_);
  }
  t_shard_cache.entries.push_back(
      ShardCacheEntry{id_, &shard->ring, shard->held});
  return shard->ring;
}

void ShardedEventRing::register_this_thread() {
  (void)shard_for_this_thread();
}

void ShardedEventRing::push(TraceEvent ev) {
  ev.seq = next_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  shard_for_this_thread().push(std::move(ev));
}

void sort_time_ordered(std::vector<TraceEvent>& events) {
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              if (a.wall_ns != b.wall_ns) return a.wall_ns < b.wall_ns;
              return a.seq < b.seq;
            });
}

std::vector<TraceEvent> ShardedEventRing::snapshot() const {
  std::vector<TraceEvent> out;
  for_each_shard([&out](const EventRing& s) {
    for (TraceEvent& ev : s.snapshot()) out.push_back(std::move(ev));
  });
  sort_time_ordered(out);
  return out;
}

std::vector<TraceEvent> ShardedEventRing::drain() {
  std::vector<TraceEvent> out;
  {
    const std::scoped_lock lock(register_mu_);
    for (Shard& s : shards_) (void)s.ring.drain(out);
  }
  sort_time_ordered(out);
  return out;
}

RingCounts ShardedEventRing::counts() const {
  RingCounts total;
  for_each_shard([&total](const EventRing& s) {
    const RingCounts c = s.counts();
    total.pushed += c.pushed;
    total.drained += c.drained;
    total.dropped += c.dropped;
    total.size += c.size;
  });
  return total;
}

std::size_t ShardedEventRing::shard_count() const {
  const std::scoped_lock lock(register_mu_);
  return shards_.size();
}

const EventRing& ShardedEventRing::shard(std::size_t i) const {
  const std::scoped_lock lock(register_mu_);
  return shards_[i].ring;
}

void ShardedEventRing::clear() {
  const std::scoped_lock lock(register_mu_);
  for (Shard& s : shards_) s.ring.clear();
}

}  // namespace lexfor::obs
