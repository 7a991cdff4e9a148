// RateRing: bounded-memory binning with exact drop accounting.  The
// ring must never grow, must classify every event it cannot hold, and
// must hand closed bins (including silent ones) to the consumer in
// order across arbitrary wraparounds.

#include "stream/rate_ring.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "util/rng.h"

namespace lexfor::stream {
namespace {

RateRingConfig config_ms(std::int64_t bin_ms, std::size_t capacity) {
  RateRingConfig c;
  c.start = SimTime::zero();
  c.bin_width = SimDuration::from_ms(static_cast<double>(bin_ms));
  c.capacity = capacity;
  return c;
}

TEST(RateRingTest, RejectsDegenerateConfig) {
  EXPECT_FALSE(RateRing::create(config_ms(10, 0)).ok());
  RateRingConfig zero_width = config_ms(0, 8);
  EXPECT_FALSE(RateRing::create(zero_width).ok());
  RateRingConfig negative = config_ms(10, 8);
  negative.bin_width = SimDuration::from_us(-5);
  EXPECT_FALSE(RateRing::create(negative).ok());
}

TEST(RateRingTest, BinsEventsAndPopsClosedWindows) {
  auto ring = RateRing::create(config_ms(100, 8)).value();
  // Two events in bin 0, one in bin 1, silence in bin 2, one in bin 3.
  EXPECT_EQ(ring.record(SimTime::from_ms(10)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(99)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(150)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(390)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.occupancy(), 4u);

  std::vector<std::uint32_t> out;
  // At t=250ms, bins 0 and 1 are closed; bin 2 is still open.
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(250), out), 2u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{2, 1}));

  // Closing through bin 3 pops the SILENT bin 2 as an explicit zero.
  out.clear();
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(400), out), 2u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(ring.base_bin(), 4u);
  EXPECT_EQ(ring.occupancy(), 0u);
  EXPECT_EQ(ring.stats().recorded, 4u);
  EXPECT_EQ(ring.stats().bins_popped, 4u);
}

TEST(RateRingTest, ExactBoundaryBelongsToNextBin) {
  auto ring = RateRing::create(config_ms(100, 4)).value();
  ASSERT_EQ(ring.record(SimTime::from_ms(100)), RecordOutcome::kRecorded);
  std::vector<std::uint32_t> out;
  // now == bin 1's start: bin 0 closed (empty), bin 1 still open.
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(100), out), 1u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0}));
  out.clear();
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(200), out), 1u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
}

TEST(RateRingTest, WraparoundReusesSlotsWithoutBleed) {
  // Capacity 4, many pop/record rounds: bin b lives at slot b % 4, so a
  // stale count in a recycled slot would corrupt a later bin.
  auto ring = RateRing::create(config_ms(10, 4)).value();
  std::vector<std::uint32_t> all;
  for (std::uint64_t bin = 0; bin < 25; ++bin) {
    const auto t0 = SimTime::from_us(static_cast<std::int64_t>(bin) * 10000);
    // bin b gets b % 3 events.
    for (std::uint64_t e = 0; e < bin % 3; ++e) {
      ASSERT_EQ(ring.record(
                    SimTime::from_us(t0.us + 1 + static_cast<std::int64_t>(e))),
                RecordOutcome::kRecorded);
    }
    ring.pop_closed(SimTime::from_us(t0.us + 10000), all);
  }
  ASSERT_EQ(all.size(), 25u);
  for (std::uint64_t bin = 0; bin < 25; ++bin) {
    EXPECT_EQ(all[bin], bin % 3) << "bin " << bin;
  }
  EXPECT_EQ(ring.stats().overflow_drops, 0u);
}

TEST(RateRingTest, DropAccountingIsExhaustive) {
  RateRingConfig cfg = config_ms(100, 4);
  cfg.start = SimTime::from_ms(1000);
  auto ring = RateRing::create(cfg).value();

  // Early: before the tap's start.
  EXPECT_EQ(ring.record(SimTime::from_ms(999)), RecordOutcome::kEarly);

  // Overflow: bin 5 while bins [0, 4) are retained and nothing popped.
  EXPECT_EQ(ring.record(SimTime::from_ms(1000)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(1550)), RecordOutcome::kOverflow);
  // The last in-window bin still records.
  EXPECT_EQ(ring.record(SimTime::from_ms(1399)), RecordOutcome::kRecorded);

  // Late: bin 0 after it has been popped.
  std::vector<std::uint32_t> out;
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(1100), out), 1u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(ring.record(SimTime::from_ms(1050)), RecordOutcome::kLate);

  const auto& st = ring.stats();
  EXPECT_EQ(st.recorded, 2u);
  EXPECT_EQ(st.early_drops, 1u);
  EXPECT_EQ(st.late_drops, 1u);
  EXPECT_EQ(st.overflow_drops, 1u);
  EXPECT_EQ(st.offered(), 5u);

  // Capacity never grew.
  EXPECT_EQ(ring.capacity(), 4u);
}

TEST(RateRingTest, OverflowedBinsPopAsZeros) {
  // Events dropped on overflow are NOT resurrected: when the consumer
  // finally drains past them, those bins read zero and the loss stays
  // visible only in the stats.
  auto ring = RateRing::create(config_ms(10, 2)).value();
  EXPECT_EQ(ring.record(SimTime::from_ms(5)), RecordOutcome::kRecorded);
  EXPECT_EQ(ring.record(SimTime::from_ms(35)), RecordOutcome::kOverflow);
  std::vector<std::uint32_t> out;
  EXPECT_EQ(ring.pop_closed(SimTime::from_ms(40), out), 4u);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 0, 0, 0}));
  EXPECT_EQ(ring.stats().overflow_drops, 1u);
}

// Random schedules of record() and pop_closed(): each event is aimed
// before the start, into a bin the ring holds, past the ring, or into a
// bin already popped, and the consumer's clock advances by 0 to 3 bins
// at a time.  The test keeps its own count per bin, so it knows the
// outcome of every record() and the count of every popped bin; the
// ring's stats must agree with it exactly.
class RateRingScheduleTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(RateRingScheduleTest, AccountingHoldsUnderRandomSchedules) {
  const auto [capacity, stream] = GetParam();
  Rng rng = Rng::sub_stream(0x52494e47, stream);
  RateRingConfig config;
  config.start = SimTime::from_sec(1.0);
  config.bin_width = SimDuration::from_ms(100.0);
  config.capacity = capacity;
  RateRing ring = RateRing::create(config).value();
  const std::int64_t width = config.bin_width.us;
  const auto bin_start = [&](std::uint64_t bin) {
    return SimTime{config.start.us + static_cast<std::int64_t>(bin) * width};
  };

  std::map<std::uint64_t, std::uint32_t> held;  // the test's own bins
  std::array<std::uint64_t, 4> tally{};         // by RecordOutcome
  std::uint64_t offered = 0;
  std::uint64_t popped_sum = 0;
  SimTime now = config.start;
  std::vector<std::uint32_t> out;
  for (int step = 0; step < 3'000; ++step) {
    if (rng.uniform(4) == 0) {
      now = now + SimDuration::from_us(
                      static_cast<std::int64_t>(rng.uniform(3 * width + 1)));
      const std::uint64_t first = ring.base_bin();
      out.clear();
      const std::size_t n = ring.pop_closed(now, out);
      ASSERT_EQ(n, out.size());
      for (std::size_t k = 0; k < n; ++k) {
        const auto it = held.find(first + k);
        ASSERT_EQ(out[k], it == held.end() ? 0u : it->second) << first + k;
        if (it != held.end()) held.erase(it);
        popped_sum += out[k];
      }
      ASSERT_EQ(ring.stats().bins_popped, ring.base_bin());
      continue;
    }
    const std::uint64_t base = ring.base_bin();
    RecordOutcome aim = RecordOutcome::kRecorded;
    std::uint64_t bin = base + rng.uniform(capacity);
    SimTime at;
    switch (rng.uniform(4)) {
      case 0:
        aim = RecordOutcome::kEarly;
        at = SimTime{config.start.us - 1 -
                     static_cast<std::int64_t>(rng.uniform(1'000'000))};
        break;
      case 1:
        aim = RecordOutcome::kOverflow;
        bin = base + capacity + rng.uniform(3 * capacity + 1);
        break;
      case 2:
        if (base > 0) {
          aim = RecordOutcome::kLate;
          bin = rng.uniform(base);
        }
        break;
      default:
        break;
    }
    if (aim != RecordOutcome::kEarly) {
      const auto within = static_cast<std::int64_t>(
          rng.uniform(static_cast<std::uint64_t>(width)));
      at = bin_start(bin) + SimDuration::from_us(within);
    }
    const RecordOutcome got = ring.record(at);
    ++offered;
    ASSERT_EQ(got, aim) << "step " << step << " at " << at.us;
    ++tally[static_cast<std::size_t>(got)];
    if (got == RecordOutcome::kRecorded) ++held[bin];
  }

  const RateRingStats& stats = ring.stats();
  EXPECT_EQ(stats.recorded,
            tally[static_cast<std::size_t>(RecordOutcome::kRecorded)]);
  EXPECT_EQ(stats.early_drops,
            tally[static_cast<std::size_t>(RecordOutcome::kEarly)]);
  EXPECT_EQ(stats.late_drops,
            tally[static_cast<std::size_t>(RecordOutcome::kLate)]);
  EXPECT_EQ(stats.overflow_drops,
            tally[static_cast<std::size_t>(RecordOutcome::kOverflow)]);
  EXPECT_EQ(stats.offered(), offered);
  EXPECT_GT(tally[static_cast<std::size_t>(RecordOutcome::kRecorded)], 0u);
  EXPECT_GT(tally[static_cast<std::size_t>(RecordOutcome::kLate)], 0u);

  // The counts still held are what a drain past the ring's last bin
  // returns; with the popped ones they make up every recorded event.
  std::uint64_t held_sum = 0;
  for (const auto& [bin, count] : held) held_sum += count;
  out.clear();
  ring.pop_closed(bin_start(ring.base_bin() + capacity), out);
  std::uint64_t drained = 0;
  for (const std::uint32_t c : out) drained += c;
  EXPECT_EQ(drained, held_sum);
  EXPECT_EQ(popped_sum + held_sum, stats.recorded);
  EXPECT_EQ(stats.bins_popped, ring.base_bin());
}

INSTANTIATE_TEST_SUITE_P(
    CapacitiesAndStreams, RateRingScheduleTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{8}, std::size_t{64}),
                       ::testing::Values(std::uint64_t{0}, std::uint64_t{1},
                                         std::uint64_t{2}, std::uint64_t{3})));

}  // namespace
}  // namespace lexfor::stream
