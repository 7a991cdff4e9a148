// Tests for the benchmark's own arithmetic: which tail percentile is
// reported, span self times, the open-loop runner's latency accounting
// (with a fake clock) and the Poisson schedule.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "measure.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(HighestReportablePercentile, LeavesAtLeastTenSamplesBeyond) {
  EXPECT_EQ(highest_reportable_percentile(20), 50000u);
  EXPECT_EQ(highest_reportable_percentile(99), 50000u);
  EXPECT_EQ(highest_reportable_percentile(100), 90000u);  // exactly 10 beyond
  EXPECT_EQ(highest_reportable_percentile(160), 90000u);
  EXPECT_EQ(highest_reportable_percentile(999), 90000u);
  EXPECT_EQ(highest_reportable_percentile(1000), 99000u);
  EXPECT_EQ(highest_reportable_percentile(9999), 99000u);
  EXPECT_EQ(highest_reportable_percentile(10000), 99900u);
  EXPECT_EQ(highest_reportable_percentile(3'000'000), 99999u);
}

TEST(HighestReportablePercentile, FallsBackToTheMedian) {
  EXPECT_EQ(highest_reportable_percentile(0), 50000u);
  EXPECT_EQ(highest_reportable_percentile(5), 50000u);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({5, 1, 3, 2, 4}, 50000), 3.0);
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 50000), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 90000), 10.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50000), 0.0);
}

TEST(InterquartileMean, AveragesTheMiddleHalf) {
  EXPECT_DOUBLE_EQ(interquartile_mean({}), 0.0);
  EXPECT_DOUBLE_EQ(interquartile_mean({7}), 7.0);
  EXPECT_DOUBLE_EQ(interquartile_mean({1, 2, 3}), 2.0);
  // Eight values: the lowest two and highest two are dropped.
  EXPECT_DOUBLE_EQ(interquartile_mean({100, 1, 5, 4, 3, 6, -50, 2}), 3.5);
}

TEST(LogHistogram, BucketsCoverEveryValueWithinOnePointSixPercent) {
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 255ull, 256ull,
                          1000ull, 2047ull, 123456789ull, 1ull << 40}) {
    const std::size_t b = LogHistogram::bucket_of(v);
    const std::uint64_t lo = LogHistogram::bucket_low(b);
    const std::uint64_t width = LogHistogram::bucket_width(b);
    EXPECT_LE(lo, v);
    EXPECT_LT(v, lo + width);
    if (v >= 128) EXPECT_LE(static_cast<double>(width) / lo, 1.0 / 64.0);
  }
  EXPECT_EQ(LogHistogram::bucket_of(191), LogHistogram::bucket_of(190));
  EXPECT_EQ(LogHistogram::bucket_of(192) + 1, LogHistogram::bucket_of(194));
}

TEST(LogHistogram, PercentilesTrackTheExactSample) {
  LogHistogram h;
  std::vector<double> exact;
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<std::int64_t>(1000 + (i * 7919) % 50000);
    h.add(v);
    exact.push_back(static_cast<double>(v));
  }
  for (const std::uint32_t p : {50000u, 90000u, 99000u}) {
    const double want = percentile(exact, p);
    EXPECT_NEAR(h.percentile(p), want, want * 0.016) << p;
  }
  EXPECT_EQ(h.count(), 100000u);

  LogHistogram first;
  LogHistogram second;
  for (int i = 0; i < 100000; ++i) {
    (i % 2 == 0 ? first : second).add(1000 + (i * 7919) % 50000);
  }
  first.merge(second);
  EXPECT_EQ(first.count(), h.count());
  EXPECT_DOUBLE_EQ(first.mean(), h.mean());
  EXPECT_DOUBLE_EQ(first.percentile(90000), h.percentile(90000));
}

TEST(SelfTime, SubtractsTheUnionOfNestedAndOverlappingChildren) {
  // parent [0,100]; a [10,40] and b [30,60] overlap; c [90,120] runs past
  // the parent's end; a's child g [15,20] is nested one level down; d
  // [30,60] duplicates b exactly.
  const std::vector<Span> spans = {
      {"parent", -1, 0, 100, 1}, {"a", 0, 10, 40, 1}, {"b", 0, 30, 60, 1},
      {"c", 0, 90, 120, 1},      {"g", 1, 15, 20, 1}, {"d", 0, 30, 60, 1},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  ASSERT_EQ(self.size(), spans.size());
  EXPECT_EQ(self[0], 100 - ((60 - 10) + (100 - 90)));
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 5);
  EXPECT_EQ(self[5], 30);

  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("parent").self_ns, 40);
  EXPECT_EQ(totals.at("parent").total_ns, 100);
  EXPECT_EQ(totals.at("a").spans, 1u);
}

TEST(SelfTime, TracerRecordsParents) {
  Tracer tracer;
  {
    const Tracer::Scope root(&tracer, "root", 7);
    { const Tracer::Scope child(&tracer, "child", 7); }
    { const Tracer::Scope child(&tracer, "child", 7); }
  }
  { const Tracer::Scope none(nullptr, "ignored", 0); }
  ASSERT_EQ(tracer.spans().size(), 3u);
  EXPECT_EQ(tracer.spans()[0].parent, -1);
  EXPECT_EQ(tracer.spans()[1].parent, 0);
  EXPECT_EQ(tracer.spans()[2].parent, 0);
  for (const Span& s : tracer.spans()) EXPECT_LE(s.start_ns, s.end_ns);
  const auto self = self_times(tracer.spans());
  EXPECT_GE(self[0], 0);
}

// A clock that only moves when told to.
struct FakeClock {
  std::int64_t t = 0;
  [[nodiscard]] std::int64_t now() const { return t; }
  void wait_until(std::int64_t at) { t = std::max(t, at); }
};

struct FakeServer {
  FakeClock& clock;
  std::size_t stall_call;          // this call takes stall_ns
  std::int64_t stall_ns;
  std::int64_t service_ns = 100;   // every other call
  std::size_t calls = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> batches;

  void call() {
    clock.t += calls == stall_call ? stall_ns : service_ns;
    ++calls;
  }
};

OpenLoopStats drive(FakeClock& clock, FakeServer& server, std::int64_t duration,
                    std::size_t max_batch) {
  std::int64_t due = 0;
  return run_open_loop(
      clock, duration, max_batch, [&] { return due += 1000; },
      [&](std::uint64_t first, std::size_t n) {
        server.batches.emplace_back(first, n);
      },
      [&] { server.call(); }, [] {});
}

TEST(OpenLoop, LatencyRunsFromTheDueTimeSoAStallCountsAgainstTheQueue) {
  FakeClock clock;
  FakeServer server{clock, /*stall_call=*/2, /*stall_ns=*/10000};
  const OpenLoopStats s = drive(clock, server, 20000, 4096);

  // Arrivals every 1000 ns from 1000 to 19000.  Call 2 (due 3000) stalls
  // until 13000, so requests due 4000..13000 ride on call 3, which
  // returns at 13100; the six after it get a call each.
  EXPECT_EQ(s.requests, 19u);
  EXPECT_EQ(s.calls, 10u);
  EXPECT_EQ(s.unsent, 0u);
  const std::vector<std::pair<std::uint64_t, std::size_t>> want = {
      {0, 1}, {1, 1}, {2, 1}, {3, 10}, {13, 1}};
  ASSERT_GE(server.batches.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(server.batches[i], want[i]) << i;
  }
  EXPECT_EQ(s.max_lag_ns, 13000 - 4000);
  // 100 + 100 + 10000 + (9100 + 8100 + ... + 100) + 6 x 100.
  const double total = 100 + 100 + 10000 + 46000 + 600;
  EXPECT_DOUBLE_EQ(s.latency_ns.mean(), total / 19.0);
  // Waits before the call starts: 0 for every request but the ten queued
  // behind the stall, which waited 13000 - due.
  EXPECT_DOUBLE_EQ(s.wait_ns_sum, 9000 + 8000 + 7000 + 6000 + 5000 + 4000 +
                                      3000 + 2000 + 1000 + 0);
  EXPECT_NEAR(s.latency_ns.percentile(99999), 10000, 10000 * 0.016);
}

TEST(OpenLoop, WithoutAStallEveryRequestSeesOnlyItsService) {
  FakeClock clock;
  FakeServer server{clock, /*stall_call=*/1000, /*stall_ns=*/0};
  const OpenLoopStats s = drive(clock, server, 20000, 4096);
  EXPECT_EQ(s.requests, 19u);
  EXPECT_EQ(s.calls, 19u);
  EXPECT_DOUBLE_EQ(s.latency_ns.mean(), 100.0);
  EXPECT_DOUBLE_EQ(s.wait_ns_sum, 0.0);
}

TEST(OpenLoop, BatchesAreCappedAndTheRestWaitsForTheNextCall) {
  FakeClock clock;
  FakeServer server{clock, /*stall_call=*/2, /*stall_ns=*/10000};
  const OpenLoopStats s = drive(clock, server, 20000, 4);
  EXPECT_EQ(s.requests, 19u);
  EXPECT_EQ(server.batches[3], (std::pair<std::uint64_t, std::size_t>{3, 4}));
  EXPECT_EQ(server.batches[4], (std::pair<std::uint64_t, std::size_t>{7, 4}));
}

TEST(OpenLoop, StopsSendingAtTwiceTheDurationAndCountsTheRestUnsent) {
  FakeClock clock;
  FakeServer server{clock, /*stall_call=*/0, /*stall_ns=*/25000};
  const OpenLoopStats s = drive(clock, server, 10000, 4096);
  // Due 1000..9000; the first call returns at 26000, past the 20000 stop.
  EXPECT_EQ(s.requests, 1u);
  EXPECT_EQ(s.unsent, 8u);
}

TEST(PoissonSchedule, IsDeterministicForASeed) {
  PoissonSchedule a(600e3, 42);
  PoissonSchedule b(600e3, 42);
  PoissonSchedule c(600e3, 43);
  bool differs = false;
  std::int64_t prev = 0;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t x = a.next();
    EXPECT_EQ(x, b.next());
    differs = differs || x != c.next();
    EXPECT_GE(x, prev);
    prev = x;
  }
  EXPECT_TRUE(differs);
}

TEST(PoissonSchedule, HasTheOfferedRate) {
  PoissonSchedule s(80e3, 7);
  std::int64_t last = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) last = s.next();
  const double mean_gap = static_cast<double>(last) / n;
  EXPECT_NEAR(mean_gap, 1e9 / 80e3, 1e9 / 80e3 * 0.01);
}

}  // namespace
}  // namespace perfbench
