#include "obs/metrics.h"

#include <algorithm>

namespace lexfor::obs {
namespace {

// Lock-free running min/max via CAS loops.
void atomic_min(std::atomic<std::int64_t>& slot, std::int64_t v) noexcept {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<std::int64_t>& slot, std::int64_t v) noexcept {
  std::int64_t cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

namespace detail {

double percentile_from_buckets(const std::vector<std::int64_t>& bounds,
                               const std::vector<std::uint64_t>& buckets,
                               std::uint64_t count, std::int64_t observed_min,
                               std::int64_t observed_max, double p) {
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count);
  const auto lo = static_cast<double>(observed_min);
  const auto hi = static_cast<double>(observed_max);

  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto in_bucket = static_cast<double>(buckets[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket < target) {
      cumulative += in_bucket;
      continue;
    }
    // Interpolate within [lower, upper] of the containing bucket,
    // tightened by the observed extremes.  The overflow bucket (i ==
    // bounds.size()) has no declared upper bound: its upper edge IS the
    // observed max — never a value past it.
    double lower = i == 0 ? lo : static_cast<double>(bounds[i - 1]);
    double upper = i < bounds.size() ? static_cast<double>(bounds[i]) : hi;
    lower = std::max(lower, lo);
    upper = std::min(upper, hi);
    if (upper < lower) upper = lower;
    const double frac = (target - cumulative) / in_bucket;
    return lower + (upper - lower) * frac;
  }
  return hi;
}

}  // namespace detail

Histogram::Histogram(std::string name, std::vector<std::int64_t> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = default_latency_bounds_us();
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.resize(bounds_.size() + 1);  // + overflow
}

std::vector<std::int64_t> Histogram::default_latency_bounds_us() {
  std::vector<std::int64_t> bounds;
  for (std::int64_t decade = 1; decade <= 1'000'000; decade *= 10) {
    bounds.push_back(decade);
    bounds.push_back(decade * 2);
    bounds.push_back(decade * 5);
  }
  return bounds;
}

void Histogram::record(std::int64_t sample) noexcept {
  buckets_[bucket_of(sample)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(sample, std::memory_order_relaxed);
  atomic_min(min_, sample);
  atomic_max(max_, sample);
}

void Histogram::Batch::flush() noexcept {
  if (count_ == 0) return;
  Histogram& h = histogram_;
  for (std::size_t i = 0; i < used_; ++i) {
    h.buckets_[buckets_[i]].fetch_add(hits_[i], std::memory_order_relaxed);
  }
  h.count_.fetch_add(count_, std::memory_order_relaxed);
  h.sum_.fetch_add(static_cast<std::int64_t>(sum_), std::memory_order_relaxed);
  atomic_min(h.min_, min_);
  atomic_max(h.max_, max_);
  used_ = 0;
  count_ = 0;
  sum_ = 0;
  min_ = INT64_MAX;
  max_ = INT64_MIN;
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0
                : static_cast<double>(sum()) / static_cast<double>(n);
}

double Histogram::percentile(double p) const {
  std::vector<std::uint64_t> buckets;
  buckets.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    buckets.push_back(b.load(std::memory_order_relaxed));
  }
  return detail::percentile_from_buckets(bounds_, buckets, count(), min(),
                                         max(), p);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(INT64_MAX, std::memory_order_relaxed);
  max_.store(INT64_MIN, std::memory_order_relaxed);
}

Counter& MetricsRegistry::counter(std::string_view name) {
  const std::scoped_lock lock(mu_);
  for (auto& c : counters_) {
    if (c.name() == name) return c;
  }
  return counters_.emplace_back(std::string(name));
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  const std::scoped_lock lock(mu_);
  for (auto& g : gauges_) {
    if (g.name() == name) return g;
  }
  return gauges_.emplace_back(std::string(name));
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<std::int64_t> bounds) {
  const std::scoped_lock lock(mu_);
  for (auto& h : histograms_) {
    if (h.name() == name) return h;
  }
  return histograms_.emplace_back(std::string(name), std::move(bounds));
}

namespace {

template <typename T>
std::vector<const T*> sorted_by_name(const std::deque<T>& items) {
  std::vector<const T*> out;
  out.reserve(items.size());
  for (const auto& item : items) out.push_back(&item);
  std::sort(out.begin(), out.end(), [](const T* a, const T* b) {
    return a->name() < b->name();
  });
  return out;
}

}  // namespace

std::vector<CounterSample> MetricsRegistry::counter_samples() const {
  std::vector<CounterSample> out;
  const std::scoped_lock lock(mu_);
  out.reserve(counters_.size());
  for (const Counter* c : sorted_by_name(counters_)) {
    out.push_back(CounterSample{c->name(), c->value()});
  }
  return out;
}

std::vector<GaugeSample> MetricsRegistry::gauge_samples() const {
  std::vector<GaugeSample> out;
  const std::scoped_lock lock(mu_);
  out.reserve(gauges_.size());
  for (const Gauge* g : sorted_by_name(gauges_)) {
    out.push_back(GaugeSample{g->name(), g->value()});
  }
  return out;
}

std::vector<HistogramSample> MetricsRegistry::histogram_samples() const {
  std::vector<HistogramSample> out;
  const std::scoped_lock lock(mu_);
  out.reserve(histograms_.size());
  for (const Histogram* h : sorted_by_name(histograms_)) {
    HistogramSample s;
    s.name = h->name();
    s.bounds = h->bounds();
    s.buckets.reserve(h->num_buckets());
    for (std::size_t i = 0; i < h->num_buckets(); ++i) {
      s.buckets.push_back(h->bucket_count(i));
    }
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min();
    s.max = h->max();
    out.push_back(std::move(s));
  }
  return out;
}

void MetricsRegistry::reset() {
  const std::scoped_lock lock(mu_);
  for (auto& c : counters_) c.reset();
  for (auto& g : gauges_) g.reset();
  for (auto& h : histograms_) h.reset();
}

MetricsRegistry& metrics() {
  // Leaked on purpose; see obs::tracer().
  static MetricsRegistry* const instance = new MetricsRegistry();
  return *instance;
}

}  // namespace lexfor::obs
