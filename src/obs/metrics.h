// Metrics registry: counters, gauges, fixed-bucket histograms.
//
// Metrics answer "how much / how fast" where traces answer "what
// happened, in what order".  All update paths are wait-free atomics so
// the registry can be shared across threads (the ThreadSanitizer stage
// in tools/run_static_analysis.sh gates this); registration takes a
// mutex but returns stable references, so call sites cache them (the
// LEXFOR_OBS_COUNTER_* macros do this with a function-local static) and
// pay only the atomic op afterwards.  Histograms use fixed bucket
// bounds and report p50/p95/p99 by linear interpolation inside the
// containing bucket — bounded error, zero per-sample allocation.

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lexfor::obs {

namespace detail {
// Shared percentile estimator over fixed-bucket counts: linear
// interpolation inside the containing bucket, with both interpolation
// endpoints clamped to the observed [min, max] so the estimate can
// never leave the sampled range — in particular the overflow (last)
// bucket, which has no upper bound, interpolates toward the observed
// max instead of extrapolating past it.  Used by the live Histogram
// and by HistogramSample (obs/snapshot.h) so the two can never drift.
[[nodiscard]] double percentile_from_buckets(
    const std::vector<std::int64_t>& bounds,
    const std::vector<std::uint64_t>& buckets, std::uint64_t count,
    std::int64_t observed_min, std::int64_t observed_max, double p);
}  // namespace detail

class Counter {
 public:
  explicit Counter(std::string name) : name_(std::move(name)) {}
  void add(std::uint64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}
  void set(std::int64_t v) noexcept {
    value_.store(v, std::memory_order_relaxed);
  }
  void add(std::int64_t delta) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::string name_;
  std::atomic<std::int64_t> value_{0};
};

class Histogram {
 public:
  // `bounds` are strictly increasing bucket upper bounds; samples above
  // the last bound land in an implicit overflow bucket.
  Histogram(std::string name, std::vector<std::int64_t> bounds);

  void record(std::int64_t sample) noexcept;

  // A one-thread recorder for a hot loop.  record() writes only this
  // object; flush() publishes what it holds with one atomic update per
  // touched bucket plus count, sum, min and max, and leaves the
  // histogram exactly as the same samples through Histogram::record
  // would.  It flushes early when its bucket slots are full, and when
  // it is destroyed.  Instrumented code uses it through
  // LEXFOR_OBS_HISTOGRAM_BATCH, which compiles out under LEXFOR_OBS=OFF.
  class Batch {
   public:
    explicit Batch(Histogram& histogram) noexcept : histogram_(histogram) {}
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;
    ~Batch() { flush(); }

    void record(std::int64_t sample) noexcept {
      const std::size_t bucket = histogram_.bucket_of(sample);
      std::size_t slot = 0;
      while (slot < used_ && buckets_[slot] != bucket) ++slot;
      if (slot == kSlots) {
        flush();
        slot = 0;
      }
      if (slot == used_) {
        buckets_[slot] = bucket;
        hits_[slot] = 0;
        ++used_;
      }
      ++hits_[slot];
      ++count_;
      // Unsigned, so the sum wraps as the atomic one does.
      sum_ += static_cast<std::uint64_t>(sample);
      min_ = std::min(min_, sample);
      max_ = std::max(max_, sample);
    }

    // Publishes and clears; a flush with nothing recorded does nothing.
    void flush() noexcept;

   private:
    static constexpr std::size_t kSlots = 8;
    Histogram& histogram_;
    std::size_t used_ = 0;
    std::array<std::size_t, kSlots> buckets_{};
    std::array<std::uint64_t, kSlots> hits_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::int64_t min_ = INT64_MAX;
    std::int64_t max_ = INT64_MIN;
  };

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::vector<std::int64_t>& bounds() const noexcept {
    return bounds_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  // min()/max() report 0 for an empty histogram: the INT64_MAX /
  // INT64_MIN seed sentinels are an implementation detail and must
  // never surface in reports or JSON.
  [[nodiscard]] std::int64_t min() const noexcept {
    return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t max() const noexcept {
    return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t num_buckets() const noexcept {
    return buckets_.size();
  }

  // Estimated value at percentile p in [0,100]; clamps to observed
  // min/max so estimates never leave the sampled range.
  [[nodiscard]] double percentile(double p) const;

  // Reasonable default for microsecond-scale latencies: 1..5e6 us in a
  // 1-2-5 ladder.
  [[nodiscard]] static std::vector<std::int64_t> default_latency_bounds_us();

  void reset() noexcept;

 private:
  [[nodiscard]] std::size_t bucket_of(std::int64_t sample) const noexcept {
    return static_cast<std::size_t>(
        std::lower_bound(bounds_.begin(), bounds_.end(), sample) -
        bounds_.begin());
  }

  std::string name_;
  std::vector<std::int64_t> bounds_;
  std::deque<std::atomic<std::uint64_t>> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::atomic<std::int64_t> min_{INT64_MAX};
  std::atomic<std::int64_t> max_{INT64_MIN};
};

// Point-in-time copies of one instrument each, used by obs::Snapshot
// and anything else that wants a consistent read without holding
// references into the live registry.
struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::int64_t value = 0;
};

struct HistogramSample {
  std::string name;
  std::vector<std::int64_t> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 (overflow last)
  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  // Same clamped estimator as the live Histogram::percentile.
  [[nodiscard]] double percentile(double p) const {
    return detail::percentile_from_buckets(bounds, buckets, count, min, max,
                                           p);
  }
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Lookup-or-create; returned references stay valid for the registry's
  // lifetime (instruments live in deques).
  [[nodiscard]] Counter& counter(std::string_view name);
  [[nodiscard]] Gauge& gauge(std::string_view name);
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     std::vector<std::int64_t> bounds = {});

  // Point-in-time copies of every instrument, sorted by name.  Each
  // instrument is read atomically field-by-field (the registry stays
  // live).  obs::Snapshot renders them (Prometheus text and JSON).
  [[nodiscard]] std::vector<CounterSample> counter_samples() const;
  [[nodiscard]] std::vector<GaugeSample> gauge_samples() const;
  [[nodiscard]] std::vector<HistogramSample> histogram_samples() const;

  // Zeroes counters/gauges and drops histograms' samples; instruments
  // themselves (and cached references) stay registered.
  void reset();

 private:
  mutable std::mutex mu_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

// The process-wide registry used by the LEXFOR_OBS_* macros; leaked on
// purpose like obs::tracer().
[[nodiscard]] MetricsRegistry& metrics();

}  // namespace lexfor::obs
