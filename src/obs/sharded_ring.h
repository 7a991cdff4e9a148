// Per-thread sharded event ring: where every accepted trace event goes.
//
// One spinlocked EventRing for every thread would make fan-out workers
// (BatchEvaluator, ScanBatch, the verdict server) serialize on a single
// cache line per event.  Instead each emitting thread gets its own
// fixed-capacity EventRing shard, registered on first use and cached in
// a thread-local table, so the hot path is:
//
//   1. one relaxed fetch_add on the global sequence (stamps
//      TraceEvent::seq, the merge tiebreaker),
//   2. a thread-local cache hit resolving this thread's shard,
//   3. an uncontended per-shard spinlock around the slot copy —
//      producers never contend with each other, only (briefly) with a
//      drain/snapshot pass walking the shards.
//
// drain()/snapshot() merge all shards into one globally time-ordered
// stream, sorted by (wall_ns, seq): wall time is the timeline, the
// claim sequence breaks ties deterministically.  Consumers take events
// only from here: obs::write_chrome_trace renders a snapshot() or a
// drain(), and the flight recorder dumps the newest of a snapshot().
// Disposal accounting is exhaustive per shard and in aggregate:
//
//   pushed == drained + dropped + size
//
// A thread that exits leaves its shard (and any undrained events) in
// place.  The next thread to register takes that shard over instead of
// adding one, unless the shard is full, in which case it gets another
// shard.  So what an exited thread traced stays visible to snapshot()
// and drain() until the shard's new holder wraps the ring: the events
// its pushes then overwrite count as dropped, like any wraparound
// (four threads in turn pushing 500 events each at 1,024 per shard
// drain 1,524 and drop 476).  Handing over only empty shards would keep
// every event, but threads that come and go without a drain would then
// add a shard each.  As it is, they keep the shard count at the peak
// number of live threads, not at the number of threads ever started;
// the process-wide util::ThreadPool never exits a worker, so each of
// its workers registers once per process, on its first traced event.
// A thread's cache entry shares a release flag with its shard, so a
// ring destroyed before the thread exits leaves the thread nothing
// dangling to write.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/event.h"
#include "obs/ring.h"

namespace lexfor::obs {

class ShardedEventRing {
 public:
  // `shard_capacity` is the retained-event budget PER SHARD (per
  // emitting thread), clamped to at least 1.
  explicit ShardedEventRing(std::size_t shard_capacity = 4096);

  ShardedEventRing(const ShardedEventRing&) = delete;
  ShardedEventRing& operator=(const ShardedEventRing&) = delete;

  // Stamps ev.seq and pushes into the calling thread's shard
  // (registering the shard on this thread's first push).  Allocates
  // nothing once the thread is registered.
  void push(TraceEvent ev);

  // Pre-registers the calling thread's shard so the first traced event
  // on a hot path does not pay the registration mutex (bench_obs calls
  // it before its timed region).
  void register_this_thread();

  // Merged oldest-to-newest copy of every shard's retained events,
  // globally ordered by (wall_ns, seq).  Does not consume.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  // Consumes every retained event from every shard and returns the
  // merged, globally (wall_ns, seq)-ordered stream.
  [[nodiscard]] std::vector<TraceEvent> drain();

  // Aggregate disposal accounting: the sum of each shard's counts(),
  // so the invariant holds for the total as it does for each shard.
  [[nodiscard]] RingCounts counts() const;
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(counts().size);
  }
  [[nodiscard]] std::uint64_t pushed() const { return counts().pushed; }
  [[nodiscard]] std::uint64_t drained() const { return counts().drained; }
  [[nodiscard]] std::uint64_t dropped() const { return counts().dropped; }

  [[nodiscard]] std::size_t shard_count() const;
  [[nodiscard]] std::size_t shard_capacity() const noexcept {
    return shard_capacity_;
  }
  // Per-shard view (shard indices are stable registration ordinals).
  [[nodiscard]] const EventRing& shard(std::size_t i) const;

  // Empties every shard and resets its accounting.  Registered shards
  // stay registered (threads hold cached pointers to them); the global
  // sequence keeps counting so post-clear events still sort after
  // pre-clear ones.
  void clear();

 private:
  [[nodiscard]] EventRing& shard_for_this_thread();

  // One shard and whether a live thread holds it.  The holding thread's
  // cache shares `held` and clears it when the thread exits.
  struct Shard {
    explicit Shard(std::size_t capacity)
        : ring(capacity), held(std::make_shared<std::atomic<bool>>(true)) {}
    EventRing ring;
    std::shared_ptr<std::atomic<bool>> held;
  };

  template <typename PerShard>
  void for_each_shard(PerShard&& fn) const {
    const std::scoped_lock lock(register_mu_);
    for (const Shard& s : shards_) fn(s.ring);
  }

  const std::uint64_t id_;  // process-unique; keys the thread cache
  const std::size_t shard_capacity_;
  std::atomic<std::uint64_t> next_seq_{0};
  mutable std::mutex register_mu_;  // guards shards_ and shard hand-over
  std::deque<Shard> shards_;        // stable references
};

// Sorts `events` into the global (wall_ns, seq) stream order in place.
void sort_time_ordered(std::vector<TraceEvent>& events);

}  // namespace lexfor::obs
