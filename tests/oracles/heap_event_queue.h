// The original binary-heap event queue, kept as a test oracle.
//
// This is the implementation the calendar queue (netsim/event_queue.h)
// replaced, unchanged in semantics: a std::priority_queue of (time,
// seq, std::function) entries.  No library code uses it —
// `Entry e = heap_.top()` copies the std::function and everything it
// captured once per event, which is the deep-copy collapse the calendar
// queue fixes.  Its value is as a specification: (time, seq) FIFO
// order, past-time clamping, run/run_until semantics.  The property
// tests and the A-NETSIM bench gate replay randomized schedules through
// both queues and require bit-identical firing order.

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/sim_time.h"

namespace lexfor::oracles {

class HeapEventQueue {
 public:
  using Callback = std::function<void()>;

  void schedule_at(SimTime at, Callback cb) {
    if (at < now_) at = now_;
    heap_.push(Entry{at, next_seq_++, std::move(cb)});
  }

  void schedule_in(SimDuration delay, Callback cb) {
    schedule_at(now_ + delay, std::move(cb));
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t processed() const noexcept { return processed_; }

  bool step() {
    if (heap_.empty()) return false;
    Entry e = heap_.top();  // the infamous per-event deep copy
    heap_.pop();
    now_ = e.at;
    ++processed_;
    e.cb();
    return true;
  }

  void run(std::uint64_t limit = ~std::uint64_t{0}) {
    while (limit-- > 0 && step()) {
    }
  }

  void run_until(SimTime until) {
    while (!heap_.empty() && heap_.top().at <= until) step();
    if (now_ < until) now_ = until;
  }

 private:
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    Callback cb;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const noexcept {
      if (a.at != b.at) return b.at < a.at;
      return b.seq < a.seq;  // FIFO among simultaneous events
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, Later> heap_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace lexfor::oracles
