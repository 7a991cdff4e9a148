// Discrete-event simulation core.
//
// A single-threaded event queue ordered by (time, sequence).  The
// sequence number makes simultaneous events fire in scheduling order, so
// runs are exactly reproducible.  All simulators in LexForensica (the
// packet network, the P2P overlay, the onion-routing network) share this
// engine.
//
// The implementation was rebuilt data-oriented.  The original queue
// (kept as the test oracle in tests/oracles/heap_event_queue.h) was a
// binary heap of std::function entries and collapsed 12.7M -> 2.7M
// events/s as the queue grew, for two compounding reasons:
//
//  1. `Entry e = heap_.top()` deep-copied the std::function — and every
//     captured packet payload and path vector — once per event
//     processed;
//  2. every push/pop sifted O(log n) entries through a cache-hostile
//     heap, touching ~log n scattered cache lines per event.
//
// The replacement is a calendar queue (Brown 1988): a circular wheel of
// `bucket_count` buckets, each `width_us` of simulated time wide, with
// a cursor sweeping the wheel in time order.  Each bucket is a vector
// kept sorted by (time, seq) and consumed through a head index, so in
// the common append-at-the-back / pop-at-the-front regime both
// operations are O(1) and touch one warm cache line.  Callbacks are
// util::SmallFn — move-only, small-buffer — so dequeuing MOVES the
// callback out of the bucket; nothing is ever deep-copied.  The wheel
// doubles when average occupancy exceeds 2 and halves when it falls
// under 1/8, re-estimating the bucket width from the live events'
// average inter-event gap, which keeps scheduling O(1) amortized from
// 16 events to millions (the A-NETSIM gate holds events/s at 1M queued
// events to >= 0.8x the 1k rate).
//
// Ordering contract (identical to the oracle, property-tested in
// tests/netsim/event_queue_test.cpp): events fire in strict (time, seq)
// order; a bucket's sorted vector breaks time ties by seq; distinct
// times in the same wheel revolution map to disjoint windows swept in
// order; and an insert earlier than the cursor's current window pulls
// the cursor back, so a peeked-ahead cursor can never skip a newly
// scheduled event.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obs/obs.h"
#include "util/sim_time.h"
#include "util/small_fn.h"

namespace lexfor::netsim {

class EventQueue {
 public:
  using Callback = util::SmallFn;

  // Schedules `cb` at absolute time `at`.  Events in the past are clamped
  // to "now" (they fire next).
  void schedule_at(SimTime at, Callback cb) {
    if (at < now_) at = now_;
    if (buckets_.empty()) init_wheel();
    insert(Entry{at.us, next_seq_++, std::move(cb)});
  }

  // Schedules `cb` after `delay` from the current time.
  void schedule_in(SimDuration delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  // Wheel introspection for tests and the A-NETSIM bench.
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] std::int64_t bucket_width_us() const noexcept {
    return width_us_;
  }

  // Runs the next event; returns false if none is pending.
  bool step() {
    if (size_ == 0) return false;
    LEXFOR_OBS_PROFILE("netsim.event.step");
    pop_and_fire(find_next_bucket());
    return true;
  }

  // Runs until the queue drains or `limit` events have been processed.
  void run(std::uint64_t limit = ~std::uint64_t{0}) {
    while (limit-- > 0 && step()) {
    }
  }

  // Runs all events with time <= `until`.  The clock advances to `until`
  // even if the queue drains earlier.
  void run_until(SimTime until) {
    while (size_ > 0) {
      // Peek: find_next_bucket positions the cursor on the next event,
      // so the step() below re-finds it in O(1).
      const std::size_t bi = find_next_bucket();
      if (buckets_[bi].items[buckets_[bi].head].at_us > until.us) break;
      step();
    }
    if (now_ < until) now_ = until;
  }

 private:
  struct Entry {
    std::int64_t at_us;
    std::uint64_t seq;
    Callback cb;
  };
  struct Bucket {
    std::vector<Entry> items;  // sorted by (at_us, seq) from `head` on
    std::size_t head = 0;      // consumed prefix; O(1) pop, capacity kept
  };

  static constexpr std::size_t kMinBuckets = 16;
  static constexpr std::size_t kMaxBuckets = std::size_t{1} << 21;

  [[nodiscard]] static bool entry_less(const Entry& a,
                                       const Entry& b) noexcept {
    if (a.at_us != b.at_us) return a.at_us < b.at_us;
    return a.seq < b.seq;
  }

  [[nodiscard]] std::size_t index_of(std::int64_t at_us) const noexcept {
    return static_cast<std::size_t>(at_us / width_us_) & mask_;
  }
  [[nodiscard]] std::int64_t window_end(std::int64_t at_us) const noexcept {
    return (at_us / width_us_ + 1) * width_us_;
  }

  void init_wheel() {
    buckets_.resize(kMinBuckets);
    mask_ = kMinBuckets - 1;
    width_us_ = 1;
    cursor_ = index_of(now_.us);
    cursor_top_us_ = window_end(now_.us);
  }

  void insert(Entry e) {
    // An event earlier than the cursor's current window pulls the cursor
    // back; otherwise a cursor that scanned ahead over empty buckets
    // could sweep past it and fire a later event first.
    if (e.at_us < cursor_top_us_ - width_us_) {
      cursor_ = index_of(e.at_us);
      cursor_top_us_ = window_end(e.at_us);
    }
    if (size_ == 0) {
      lo_us_ = hi_us_ = e.at_us;
    } else {
      lo_us_ = std::min(lo_us_, e.at_us);
      hi_us_ = std::max(hi_us_, e.at_us);
    }
    Bucket& b = buckets_[index_of(e.at_us)];
    if (b.items.empty() || entry_less(b.items.back(), e)) {
      b.items.push_back(std::move(e));  // common case: times ascend
    } else {
      const auto it = std::upper_bound(
          b.items.begin() + static_cast<std::ptrdiff_t>(b.head),
          b.items.end(), e, entry_less);
      b.items.insert(it, std::move(e));
    }
    ++size_;
    // Grow only while more buckets can still reduce collisions: past one
    // bucket per occupied time window, doubling just inflates the wheel
    // (the degenerate many-events-few-timestamps workload would otherwise
    // re-sort the whole queue at every doubling — the very collapse this
    // structure exists to fix).
    if (size_ > 2 * buckets_.size() && buckets_.size() < kMaxBuckets &&
        buckets_.size() < windows_spanned()) {
      rehash(buckets_.size() * 2);
    }
  }

  // Number of `width_us_`-wide time windows the live events span.  The
  // watermarks are refreshed from live entries at every rehash, so they
  // track the queue as the clock advances.
  [[nodiscard]] std::size_t windows_spanned() const noexcept {
    return static_cast<std::size_t>((hi_us_ - lo_us_) / width_us_) + 1;
  }

  // Locates the bucket holding the globally next (time, seq) event and
  // leaves the cursor parked on it.  Pre: size_ > 0.
  [[nodiscard]] std::size_t find_next_bucket() {
    // One revolution of the wheel: the cursor's window advances
    // `width_us_` per bucket, and a bucket's front event fires iff it
    // falls inside the current window (same wheel year).
    for (std::size_t n = 0; n <= mask_; ++n) {
      const Bucket& b = buckets_[cursor_];
      if (b.head < b.items.size() && b.items[b.head].at_us < cursor_top_us_) {
        return cursor_;
      }
      cursor_ = (cursor_ + 1) & mask_;
      cursor_top_us_ += width_us_;
    }
    // Nothing within a revolution (sparse queue / far-future gap): jump
    // the cursor straight to the global minimum.
    std::size_t best = 0;
    bool found = false;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const Bucket& b = buckets_[i];
      if (b.head >= b.items.size()) continue;
      if (!found || entry_less(b.items[b.head],
                               buckets_[best].items[buckets_[best].head])) {
        best = i;
        found = true;
      }
    }
    const std::int64_t at = buckets_[best].items[buckets_[best].head].at_us;
    cursor_ = best;
    cursor_top_us_ = window_end(at);
    return best;
  }

  void pop_and_fire(std::size_t bi) {
    Bucket& b = buckets_[bi];
    Entry e = std::move(b.items[b.head]);  // move, never copy
    if (++b.head == b.items.size()) {
      b.items.clear();  // capacity retained for the next revolution
      b.head = 0;
    }
    --size_;
    now_ = SimTime::from_us(e.at_us);
    ++processed_;
    LEXFOR_OBS_COUNTER_ADD("netsim.events_processed", 1);
    LEXFOR_OBS_GAUGE_SET("netsim.queue_depth",
                         static_cast<std::int64_t>(size_));
    if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 8) {
      rehash(buckets_.size() / 2);
    }
    e.cb();
  }

  // Rebuilds the wheel at `new_count` buckets, re-estimating the bucket
  // width from the live events' average inter-event gap.
  void rehash(std::size_t new_count) {
    std::vector<Entry> all;
    all.reserve(size_);
    for (Bucket& b : buckets_) {
      for (std::size_t i = b.head; i < b.items.size(); ++i) {
        all.push_back(std::move(b.items[i]));
      }
      b.items.clear();
      b.head = 0;
    }
    buckets_.resize(new_count);
    mask_ = new_count - 1;
    if (all.size() >= 2) {
      std::int64_t lo = all.front().at_us;
      std::int64_t hi = lo;
      for (const Entry& e : all) {
        lo = std::min(lo, e.at_us);
        hi = std::max(hi, e.at_us);
      }
      const auto gap =
          (hi - lo) / static_cast<std::int64_t>(all.size() - 1);
      width_us_ = gap > 0 ? gap : 1;
      lo_us_ = lo;  // refresh the span watermarks from live entries
      hi_us_ = hi;
    }
    // Sorting first makes every per-bucket insert an append.
    std::sort(all.begin(), all.end(), entry_less);
    for (Entry& e : all) {
      buckets_[index_of(e.at_us)].items.push_back(std::move(e));
    }
    cursor_ = index_of(now_.us);
    cursor_top_us_ = window_end(now_.us);
  }

  std::vector<Bucket> buckets_;
  std::size_t mask_ = 0;
  std::int64_t width_us_ = 1;
  std::int64_t lo_us_ = 0;  // min/max insert-time watermarks of live
  std::int64_t hi_us_ = 0;  // events; refreshed at each rehash
  std::size_t size_ = 0;
  std::size_t cursor_ = 0;          // bucket the sweep is parked on
  std::int64_t cursor_top_us_ = 0;  // exclusive end of the cursor's window
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace lexfor::netsim
