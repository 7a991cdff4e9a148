#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace lexfor::obs {
namespace {

// Thread-safety stress tests.  These are the targets of the
// ThreadSanitizer stage in tools/run_static_analysis.sh: every
// operation below must be data-race-free, and totals must be exact
// (no lost updates) because counters/histograms use atomics, not
// locked read-modify-write.

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 20'000;

TEST(ObsMetricsThreadTest, ConcurrentCounterAddsAreExact) {
  MetricsRegistry reg;
  Counter& c = reg.counter("stress.hits");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kOpsPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ObsMetricsThreadTest, ConcurrentHistogramRecordsAreExact) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("stress.lat", {10, 100, 1000});
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Spread across all buckets; value range [1, 2000].
        h.record(1 + (t * kOpsPerThread + i) % 2000);
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto total = static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(h.count(), total);
  std::uint64_t bucket_sum = 0;
  for (std::size_t b = 0; b < h.num_buckets(); ++b) {
    bucket_sum += h.bucket_count(b);
  }
  EXPECT_EQ(bucket_sum, total);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 2000);
}

// Threads publishing batches at once, a flush every 64 samples as a
// server flushes per chunk: the totals are exact, as with record().
TEST(ObsMetricsThreadTest, ConcurrentBatchPublishesAreExact) {
  MetricsRegistry reg;
  Histogram& h = reg.histogram("stress.batched", {10, 100, 1000});
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      Histogram::Batch batch(h);
      for (int i = 0; i < kOpsPerThread; ++i) {
        batch.record(1 + (t * kOpsPerThread + i) % 2000);
        if (i % 64 == 63) batch.flush();
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto total = static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(h.count(), total);
  // Each value in [1, 2000] was recorded total / 2000 times.
  EXPECT_EQ(h.sum(), static_cast<std::int64_t>(total / 2000) * 2000 * 2001 / 2);
  EXPECT_EQ(h.bucket_count(0), total / 2000 * 10);
  EXPECT_EQ(h.bucket_count(1), total / 2000 * 90);
  EXPECT_EQ(h.bucket_count(2), total / 2000 * 900);
  EXPECT_EQ(h.bucket_count(3), total / 2000 * 1000);
  EXPECT_EQ(h.min(), 1);
  EXPECT_EQ(h.max(), 2000);
}

TEST(ObsMetricsThreadTest, ConcurrentRegistryLookupsYieldOneInstrument) {
  MetricsRegistry reg;
  std::vector<Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &seen, t] {
      Counter& c = reg.counter("stress.shared");
      seen[static_cast<std::size_t>(t)] = &c;
      for (int i = 0; i < 1'000; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], seen[0]);
  }
  EXPECT_EQ(reg.counter("stress.shared").value(),
            static_cast<std::uint64_t>(kThreads) * 1'000);
}

TEST(ObsMetricsThreadTest, MixedGaugeWritesLandOnAWrittenValue) {
  MetricsRegistry reg;
  Gauge& g = reg.gauge("stress.depth");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g, t] {
      for (int i = 0; i < kOpsPerThread; ++i) g.set(t);
    });
  }
  for (auto& w : workers) w.join();
  // Last write wins; it must be one of the values actually written.
  const std::int64_t v = g.value();
  EXPECT_GE(v, 0);
  EXPECT_LT(v, kThreads);
}

}  // namespace
}  // namespace lexfor::obs
