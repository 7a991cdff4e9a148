#include "measure.h"

#include <bit>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

constexpr std::uint64_t kScale = 100000;  // percentile parts
constexpr std::size_t kLinear = 128;      // exact buckets below this
constexpr std::size_t kPerOctave = 64;

}  // namespace

std::uint32_t highest_reportable_percentile(std::uint64_t n,
                                            std::uint64_t min_beyond) {
  std::uint32_t best = kPercentileLadder.front();
  for (const std::uint32_t p : kPercentileLadder) {
    // Samples beyond p: n * (1 - p), compared without rounding.
    if (n * (kScale - p) >= min_beyond * kScale) best = p;
  }
  return best;
}

double percentile(std::vector<double> values, std::uint32_t p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = static_cast<double>(p) / static_cast<double>(kScale) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

std::size_t LogHistogram::bucket_of(std::uint64_t value) noexcept {
  if (value < kLinear) return static_cast<std::size_t>(value);
  // value has bit_width >= 8; keep its top 7 bits (64 sub-buckets).
  const int shift = std::bit_width(value) - 7;
  return static_cast<std::size_t>(shift) * kPerOctave +
         static_cast<std::size_t>(value >> shift);
}

std::uint64_t LogHistogram::bucket_low(std::size_t index) noexcept {
  if (index < kLinear) return index;
  const std::size_t shift = index / kPerOctave - 1;
  return static_cast<std::uint64_t>(index - shift * kPerOctave) << shift;
}

std::uint64_t LogHistogram::bucket_width(std::size_t index) noexcept {
  if (index < kLinear) return 1;
  return std::uint64_t{1} << (index / kPerOctave - 1);
}

void LogHistogram::add(std::int64_t value) {
  const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
  const std::size_t b = bucket_of(v);
  if (b >= buckets_.size()) buckets_.resize(b + 1, 0);
  ++buckets_[b];
  ++count_;
  sum_ += static_cast<double>(v);
}

void LogHistogram::merge(const LogHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (std::size_t b = 0; b < other.buckets_.size(); ++b) {
    buckets_[b] += other.buckets_[b];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

double LogHistogram::value_at(std::uint64_t index) const {
  // The samples of a bucket are taken as evenly spread across it.
  std::uint64_t before = 0;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    if (index < before + buckets_[b]) {
      const double frac = (static_cast<double>(index - before) + 0.5) /
                          static_cast<double>(buckets_[b]);
      return static_cast<double>(bucket_low(b)) +
             frac * static_cast<double>(bucket_width(b));
    }
    before += buckets_[b];
  }
  return 0.0;
}

double LogHistogram::percentile(std::uint32_t p) const {
  if (count_ == 0) return 0.0;
  // The same interpolation between ranks as perfbench::percentile.
  const double pos = static_cast<double>(p) / static_cast<double>(kScale) *
                     static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double v_lo = value_at(lo);
  return v_lo + (value_at(hi) - v_lo) * (pos - static_cast<double>(lo));
}

PoissonSchedule::PoissonSchedule(double rate_per_s, std::uint64_t seed)
    : mean_gap_ns_(1e9 / rate_per_s), state_(seed) {}

std::int64_t PoissonSchedule::next() {
  // One step of the SplitMix64 stream, as a uniform draw in [0, 1).
  const double u = static_cast<double>(mix64(state_) >> 11) * 0x1.0p-53;
  state_ += 0x9e3779b97f4a7c15ULL;
  t_ns_ += -std::log1p(-u) * mean_gap_ns_;
  return static_cast<std::int64_t>(t_ns_);
}

double peak_rss_mib() {
  // VmHWM rather than getrusage's ru_maxrss, which on Linux keeps the
  // high-water mark of the process that forked this one.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib / 1024.0;
}

}  // namespace perfbench
