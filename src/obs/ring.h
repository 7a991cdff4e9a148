// Fixed-capacity event ring with exhaustive disposal accounting.
//
// Every event pushed into an EventRing ends its life in exactly one of
// three ways: it is still retained, it was drained (handed to a
// consumer), or it was dropped (overwritten by a newer event before any
// drain saw it).  The ring tracks all three so the invariant
//
//   pushed == drained + dropped + size
//
// holds at every instant — the same closed-world discipline
// stream::RateRing applies to bins and netsim applies to packets.
// counts() reads all four under the ring's lock, so a reading taken
// while another thread pushes still satisfies the invariant; each
// shard's reading reaches obs::Snapshot::ring.
//
// One EventRing is the per-thread shard of a ShardedEventRing
// (obs/sharded_ring.h).  The spinlock is therefore uncontended on the
// hot path — the owning thread is the only producer; a drain, snapshot
// or counts() call from another thread is the only other party — which
// keeps the common push to a handful of instructions without the
// cross-thread cache-line fights of one shared ring.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "obs/event.h"

namespace lexfor::obs {

// One consistent reading of a ring's disposal accounting.
struct RingCounts {
  std::uint64_t pushed = 0;   // events ever pushed
  std::uint64_t drained = 0;  // handed out through drain()
  std::uint64_t dropped = 0;  // overwritten before any drain saw them
  std::uint64_t size = 0;     // retained now
};

class EventRing {
 public:
  explicit EventRing(std::size_t capacity = 4096)
      : slots_(capacity == 0 ? 1 : capacity) {}

  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  [[nodiscard]] RingCounts counts() const noexcept {
    lock();
    const RingCounts c{pushed_, drained_, dropped_, retained()};
    unlock();
    return c;
  }
  [[nodiscard]] std::uint64_t pushed() const noexcept {
    return counts().pushed;
  }
  [[nodiscard]] std::uint64_t drained() const noexcept {
    return counts().drained;
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return counts().dropped;
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(counts().size);
  }

  void push(TraceEvent ev) {
    lock();
    // When the ring is full the oldest retained event is overwritten
    // unseen.
    if (retained() == slots_.size()) ++dropped_;
    slots_[static_cast<std::size_t>(pushed_ % slots_.size())] = std::move(ev);
    ++pushed_;
    unlock();
  }

  // Oldest-to-newest copy of the retained events; does not consume.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const {
    std::vector<TraceEvent> out;
    lock();
    out.reserve(static_cast<std::size_t>(retained()));
    for (std::uint64_t i = drained_ + dropped_; i < pushed_; ++i) {
      out.push_back(slots_[static_cast<std::size_t>(i % slots_.size())]);
    }
    unlock();
    return out;
  }

  // Moves every retained event (oldest-to-newest) into `out` and marks
  // them drained.  Returns the number of events appended.  `out` grows
  // geometrically: reserving exactly would reallocate it, under the
  // lock, on every drain into the same vector.
  std::size_t drain(std::vector<TraceEvent>& out) {
    lock();
    const auto taken = static_cast<std::size_t>(retained());
    for (std::uint64_t i = drained_ + dropped_; i < pushed_; ++i) {
      out.push_back(
          std::move(slots_[static_cast<std::size_t>(i % slots_.size())]));
    }
    drained_ += taken;
    unlock();
    return taken;
  }

  // Resets the ring to empty, forgetting all accounting.
  void clear() {
    lock();
    pushed_ = drained_ = dropped_ = 0;
    unlock();
  }

 private:
  // Caller holds the lock.
  [[nodiscard]] std::uint64_t retained() const noexcept {
    return pushed_ - drained_ - dropped_;
  }

  void lock() const noexcept {
    while (busy_.test_and_set(std::memory_order_acquire)) {
    }
  }
  void unlock() const noexcept { busy_.clear(std::memory_order_release); }

  mutable std::atomic_flag busy_ = ATOMIC_FLAG_INIT;
  std::uint64_t pushed_ = 0;
  std::uint64_t drained_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<TraceEvent> slots_;
};

}  // namespace lexfor::obs
