// The benchmark's own arithmetic: sample statistics, the latency
// histogram, the Poisson arrival schedule and the open-loop runner.
// Nothing here depends on LexForensica, so tests/arith_test.cpp checks it
// in isolation (and with a fake clock where time matters).

#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// SplitMix64: a well-mixed 64-bit function of x, for stateless draws.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Percentiles are written in parts per 100000 so that "how many samples
// lie beyond p" is exact integer arithmetic (p90 is 90000).
inline constexpr std::array<std::uint32_t, 6> kPercentileLadder = {
    50000, 90000, 99000, 99900, 99990, 99999};

// The highest percentile of kPercentileLadder that leaves at least
// `min_beyond` of `n` samples beyond it; the median when none does.
[[nodiscard]] std::uint32_t highest_reportable_percentile(
    std::uint64_t n, std::uint64_t min_beyond = 10);

// Linear-interpolated percentile (p in parts per 100000) of an unsorted
// sample; 0 for an empty one.
[[nodiscard]] double percentile(std::vector<double> values, std::uint32_t p);

[[nodiscard]] inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50000);
}

// Mean of the middle half of a sample (floor(n/4) values dropped at each
// end); 0 for an empty one.  Per-window and per-segment figures are
// combined this way: it ignores a stall that spoils a few windows, like a
// median, but averages over a host that alternates between a fast and a
// slow state, where a median jumps to whichever state held most windows.
[[nodiscard]] double interquartile_mean(std::vector<double> values);

// Log-linear histogram of non-negative integer values (nanoseconds): exact
// below 128, then 64 buckets per power of two (under 1.6% bucket width).
// Percentiles interpolate between ranks like perfbench::percentile, with
// each bucket's samples spread evenly across it, so a reported value is
// not quantised to bucket edges.
class LogHistogram {
 public:
  void add(std::int64_t value);
  void merge(const LogHistogram& other);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double percentile(std::uint32_t p) const;
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t value) noexcept;
  [[nodiscard]] static std::uint64_t bucket_low(std::size_t index) noexcept;
  [[nodiscard]] static std::uint64_t bucket_width(std::size_t index) noexcept;

 private:
  [[nodiscard]] double value_at(std::uint64_t index) const;

  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

// Poisson arrivals at a fixed rate: exponential gaps from a SplitMix64
// stream, so the same (rate, seed) always yields the same due times on
// every platform.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, std::uint64_t seed);
  // Due time of the next arrival, in ns after the schedule's start.
  [[nodiscard]] std::int64_t next();

 private:
  double mean_gap_ns_;
  std::uint64_t state_;
  double t_ns_ = 0.0;
};

struct OpenLoopStats {
  LogHistogram latency_ns;     // due time -> return of the carrying call
  std::uint64_t requests = 0;  // sent and answered
  std::uint64_t calls = 0;
  std::uint64_t unsent = 0;    // due before the end but never sent (overrun)
  double wait_ns_sum = 0.0;    // sum over requests of (call start - due)
  std::int64_t max_lag_ns = 0; // worst (call start - due) of any request
};

// Drives one open loop.  `next_due()` yields ascending due times in ns
// after the loop's start.  Each call carries every request that was due
// by the time the previous call returned (at most `max_batch`); when
// nothing is due the loop waits for the next arrival.  `prepare(first,
// n)` builds requests with ordinals [first, first + n), `call()` serves
// them and `after()` takes the responses once the call's return time is
// read; time spent in `after` delays the next call like any stall.
// Latency runs from each request's due time to the return of its call,
// so a stall counts against every request queued behind it.  Arrivals
// due from `duration_ns` on are not sent; the loop stops sending at
// 2 x duration_ns and counts what is still due as unsent.
//
// Clock: `now()` in ns and `wait_until(t)`; a fake clock makes the
// arithmetic testable.
template <class Clock, class NextDue, class Prepare, class Call, class After>
OpenLoopStats run_open_loop(Clock& clock, std::int64_t duration_ns,
                            std::size_t max_batch, NextDue&& next_due,
                            Prepare&& prepare, Call&& call, After&& after) {
  OpenLoopStats stats;
  std::vector<std::int64_t> due;
  due.reserve(max_batch);
  const std::int64_t t0 = clock.now();
  const std::int64_t end = t0 + duration_ns;
  const std::int64_t hard_stop = t0 + 2 * duration_ns;
  std::int64_t next = t0 + next_due();
  std::int64_t cutoff = t0;
  while (next < end) {
    if (next > cutoff) {
      clock.wait_until(next);
      cutoff = clock.now();
    }
    if (cutoff >= hard_stop) break;
    due.clear();
    while (next <= cutoff && next < end && due.size() < max_batch) {
      due.push_back(next);
      next = t0 + next_due();
    }
    prepare(stats.requests, due.size());
    const std::int64_t start = clock.now();
    call();
    const std::int64_t ret = clock.now();
    for (const std::int64_t d : due) {
      stats.latency_ns.add(ret - d);
      stats.wait_ns_sum += static_cast<double>(start - d);
      stats.max_lag_ns = std::max(stats.max_lag_ns, start - d);
    }
    stats.requests += due.size();
    ++stats.calls;
    cutoff = ret;
    after();
  }
  while (next < end) {
    ++stats.unsent;
    next = t0 + next_due();
  }
  return stats;
}

// Peak resident set size of this process so far, MiB.
[[nodiscard]] double peak_rss_mib();

}  // namespace perfbench
