#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>
#include <vector>

#include "obs/snapshot.h"
#include "util/rng.h"
#include "util/stats.h"

namespace lexfor::obs {
namespace {

TEST(ObsMetricsTest, CounterAccumulates) {
  MetricsRegistry reg;
  Counter& c = reg.counter("test.hits");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Same name resolves to the same instrument.
  EXPECT_EQ(&reg.counter("test.hits"), &c);
  EXPECT_NE(&reg.counter("test.other"), &c);
}

TEST(ObsMetricsTest, GaugeSetAndAdd) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("test.depth");
  g.set(10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
  g.set(-5);
  EXPECT_EQ(g.value(), -5);
}

TEST(ObsMetricsTest, HistogramTracksCountSumMinMax) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.lat", {10, 100, 1000});
  for (const std::int64_t v : {3, 42, 42, 950, 5000}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 3 + 42 + 42 + 950 + 5000);
  EXPECT_EQ(h.min(), 3);
  EXPECT_EQ(h.max(), 5000);
  EXPECT_DOUBLE_EQ(h.mean(), static_cast<double>(h.sum()) / 5.0);
  // Bucket layout: (-inf,10], (10,100], (100,1000], overflow.
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);
}

TEST(ObsMetricsTest, EmptyHistogramReportsZeroes) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.empty", {1, 2});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

// Both exposition formats of a registry holding `name` as an empty
// histogram: neither may carry the INT64_MAX / INT64_MIN seed
// sentinels, and JSON must omit the stats an empty histogram lacks.
void expect_empty_histogram_exposed_without_sentinels(
    const MetricsRegistry& reg, const std::string& name) {
  const Snapshot snap = Snapshot::capture(reg);
  std::ostringstream json;
  snap.to_json(json);
  std::ostringstream prom;
  snap.to_prometheus(prom);
  for (const std::string& out : {json.str(), prom.str()}) {
    EXPECT_EQ(out.find("9223372036854775807"), std::string::npos) << out;
    EXPECT_EQ(out.find("9223372036854775808"), std::string::npos) << out;
  }
  EXPECT_NE(json.str().find("\"" + name + "\":{\"count\":0,\"sum\":0}"),
            std::string::npos)
      << json.str();
  std::string family = name;
  std::replace(family.begin(), family.end(), '.', '_');
  EXPECT_NE(prom.str().find(family + "_count 0\n"), std::string::npos)
      << prom.str();
}

// Regression: an unrecorded histogram used to surface its INT64_MAX /
// INT64_MIN seed sentinels through min()/max().  While empty the
// accessors must report 0 and the exposition must omit the stats.
TEST(ObsMetricsTest, EmptyHistogramDoesNotLeakSentinels) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.empty", {10, 100});
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  expect_empty_histogram_exposed_without_sentinels(reg, "test.empty");

  // reset() re-seeds the sentinels; the empty-state reporting must
  // survive a record/reset cycle.
  h.record(42);
  EXPECT_EQ(h.min(), 42);
  EXPECT_EQ(h.max(), 42);
  h.reset();
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

// Percentile estimates interpolate within a bucket, so the error is
// bounded by the width of the bucket containing the percentile.  Check
// p50/p95/p99 against an exact sorted-sample reference.
TEST(ObsMetricsTest, PercentilesTrackSortedReferenceWithinBucketWidth) {
  MetricsRegistry reg;
  // 1-2-5 ladder over [1, 5e6]; samples drawn log-uniformly in [1, 1e6).
  Histogram& h = reg.histogram("test.p");
  Rng rng(1234);
  std::vector<double> samples;
  for (int i = 0; i < 20'000; ++i) {
    const double log_span = 6.0 * rng.uniform01();
    const auto v = static_cast<std::int64_t>(std::pow(10.0, log_span));
    samples.push_back(static_cast<double>(v));
    h.record(v);
  }
  for (const double p : {50.0, 95.0, 99.0}) {
    const double exact = percentile(samples, p);
    const double estimate = h.percentile(p);
    // Containing bucket in a 1-2-5 ladder is at most 2.5x wide; the
    // estimate must land within that bucket's span of the exact value.
    EXPECT_GE(estimate, exact / 2.5) << "p" << p;
    EXPECT_LE(estimate, exact * 2.5) << "p" << p;
  }
  // Extremes clamp to observed samples.
  EXPECT_DOUBLE_EQ(h.percentile(0), static_cast<double>(h.min()));
  EXPECT_DOUBLE_EQ(h.percentile(100), static_cast<double>(h.max()));
}

TEST(ObsMetricsTest, PercentileExactForSingleValue) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.single", {10, 100});
  for (int i = 0; i < 50; ++i) h.record(42);
  // All mass in one bucket clamped by observed min=max=42.
  EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 42.0);
}

// Regression (ISSUE 7 satellite): the overflow bucket has no declared
// upper bound, so its interpolation endpoint must be the observed max —
// a percentile estimate may never exceed the largest recorded value.
TEST(ObsMetricsTest, OverflowBucketPercentilesClampToObservedMax) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.overflow", {10, 100});
  // 90% of the mass lands past the last bound.
  for (int i = 0; i < 10; ++i) h.record(5);
  for (int i = 0; i < 90; ++i) h.record(150);
  for (const double p : {50.0, 95.0, 99.0, 100.0}) {
    EXPECT_LE(h.percentile(p), static_cast<double>(h.max())) << "p" << p;
    EXPECT_GE(h.percentile(p), static_cast<double>(h.min())) << "p" << p;
  }
  EXPECT_DOUBLE_EQ(h.percentile(100), 150.0);
}

TEST(ObsMetricsTest, SingleOverflowSampleReportsItsOwnValue) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.overflow1", {10});
  h.record(7'000'000);  // alone in the overflow bucket
  EXPECT_DOUBLE_EQ(h.percentile(50), 7'000'000.0);
  EXPECT_DOUBLE_EQ(h.percentile(99), 7'000'000.0);
}

TEST(ObsMetricsTest, AllMassInOverflowInterpolatesWithinObservedRange) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.overflow_all", {10});
  h.record(1'000);
  h.record(2'000);
  h.record(3'000);
  for (const double p : {1.0, 50.0, 99.0}) {
    EXPECT_GE(h.percentile(p), 1'000.0) << "p" << p;
    EXPECT_LE(h.percentile(p), 3'000.0) << "p" << p;
  }
}

void expect_same_histogram(const Histogram& a, const Histogram& b) {
  ASSERT_EQ(a.num_buckets(), b.num_buckets());
  for (std::size_t i = 0; i < a.num_buckets(); ++i) {
    EXPECT_EQ(a.bucket_count(i), b.bucket_count(i)) << "bucket " << i;
  }
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
  for (const double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(a.percentile(p), b.percentile(p)) << "p" << p;
  }
}

// A batch publishes exactly what per-sample record() would, including
// negative samples, samples equal to a bound, overflow samples and more
// distinct buckets than the batch has slots.
TEST(ObsMetricsTest, BatchMatchesPerSampleRecord) {
  MetricsRegistry reg;
  Histogram& single = reg.histogram("test.single");
  Histogram& batched = reg.histogram("test.batched");
  const std::vector<std::int64_t>& bounds = single.bounds();
  Rng rng(20);
  std::vector<std::int64_t> samples;
  for (int i = 0; i < 5'000; ++i) {
    switch (rng.uniform(4)) {
      case 0:
        samples.push_back(-static_cast<std::int64_t>(rng.uniform(1'000)));
        break;
      case 1:
        samples.push_back(bounds[rng.uniform(bounds.size())]);
        break;
      case 2:
        samples.push_back(bounds.back() + 1 +
                          static_cast<std::int64_t>(rng.uniform(1'000'000)));
        break;
      default:
        samples.push_back(static_cast<std::int64_t>(
            std::pow(10.0, 6.0 * rng.uniform01())));
        break;
    }
  }
  Histogram::Batch batch(batched);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    single.record(samples[i]);
    batch.record(samples[i]);
    if (i % 97 == 96) batch.flush();
  }
  batch.flush();
  expect_same_histogram(single, batched);
  EXPECT_LT(batched.min(), 0);
  EXPECT_GT(batched.bucket_count(batched.num_buckets() - 1), 0u);
}

// record(sample, n) leaves the histogram as n record(sample) calls do:
// n = 0 records nothing, not even a min or max beyond the real samples',
// 2^20 samples go in as one call, the sum wraps 2^64, and 12 distinct
// buckets overrun the batch's 8 slots.
TEST(ObsMetricsTest, BatchRecordOfNMatchesNSingleRecords) {
  MetricsRegistry reg;
  Histogram& single = reg.histogram("test.single");
  Histogram& batched = reg.histogram("test.batched");
  {
    Histogram::Batch batch(batched);
    batch.record(7, 0);
  }
  EXPECT_EQ(batched.count(), 0u);
  expect_same_histogram(single, batched);

  // Five samples of 2^62 - 1 add up to more than 2^64, so the sum wraps.
  const std::int64_t huge = INT64_MAX / 2;
  const std::vector<std::pair<std::int64_t, std::uint64_t>> runs = {
      {7, 0},   {7, 1},   {-3, 2},   {300, 1u << 20}, {huge, 5},       {1, 3},
      {-50, 0}, {5, 4},   {10, 1},   {20, 9},         {50, 2},         {100, 6},
      {200, 1}, {500, 3}, {1000, 2}, {2000, 1},       {INT64_MAX, 0}, {300, 1}};
  Histogram::Batch batch(batched);
  std::uint64_t total = 0;
  for (const auto& [sample, n] : runs) {
    for (std::uint64_t i = 0; i < n; ++i) single.record(sample);
    batch.record(sample, n);
    total += n;
  }
  batch.flush();
  expect_same_histogram(single, batched);
  EXPECT_EQ(batched.count(), total);
  EXPECT_EQ(batched.min(), -3);
  EXPECT_EQ(batched.max(), huge);
}

TEST(ObsMetricsTest, EmptyOrTwiceFlushedBatchChangesNothing) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("test.batch", {10, 100});
  {
    Histogram::Batch empty(h);
    empty.flush();
  }  // and flushed again by the destructor
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
  expect_empty_histogram_exposed_without_sentinels(reg, "test.batch");

  Histogram& once = reg.histogram("test.once", {10, 100});
  once.record(7);
  once.record(150);
  {
    Histogram::Batch batch(h);
    batch.record(7);
    batch.record(150);
    batch.flush();
    batch.flush();
  }
  expect_same_histogram(once, h);
}

TEST(ObsMetricsTest, SampleAccessorsMirrorLiveInstruments) {
  MetricsRegistry reg;
  reg.counter("b.counter").add(3);
  reg.counter("a.counter").add(1);
  reg.gauge("g").set(-4);
  Histogram& h = reg.histogram("h", {10});
  h.record(5);
  h.record(500);

  const auto counters = reg.counter_samples();
  ASSERT_EQ(counters.size(), 2u);
  EXPECT_EQ(counters[0].name, "a.counter");  // sorted by name
  EXPECT_EQ(counters[1].value, 3u);
  const auto gauges = reg.gauge_samples();
  ASSERT_EQ(gauges.size(), 1u);
  EXPECT_EQ(gauges[0].value, -4);
  const auto hists = reg.histogram_samples();
  ASSERT_EQ(hists.size(), 1u);
  EXPECT_EQ(hists[0].count, 2u);
  EXPECT_EQ(hists[0].sum, 505);
  ASSERT_EQ(hists[0].buckets.size(), 2u);
  EXPECT_EQ(hists[0].buckets[0], 1u);
  EXPECT_EQ(hists[0].buckets[1], 1u);
  EXPECT_DOUBLE_EQ(hists[0].percentile(99), h.percentile(99));
}

TEST(ObsMetricsTest, ResetZeroesValuesButKeepsInstruments) {
  MetricsRegistry reg;
  Counter& c = reg.counter("hits");
  Gauge& g = reg.gauge("depth");
  Histogram& h = reg.histogram("lat", {10});
  c.add(5);
  g.set(5);
  h.record(5);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);
  // Cached references stay valid and usable after reset.
  c.add(1);
  EXPECT_EQ(reg.counter("hits").value(), 1u);
}

}  // namespace
}  // namespace lexfor::obs
