#include "obs/ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace lexfor::obs {
namespace {

TraceEvent make_event(std::uint64_t n) {
  TraceEvent ev;
  ev.wall_ns = n;
  ev.name = "e" + std::to_string(n);
  ev.category = "test";
  return ev;
}

TEST(ObsRingTest, StartsEmpty) {
  EventRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(ObsRingTest, RetainsInsertionOrderBelowCapacity) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.push(make_event(i));
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].wall_ns, i);
    EXPECT_EQ(events[i].name, "e" + std::to_string(i));
  }
}

TEST(ObsRingTest, WraparoundKeepsNewestCapacityEvents) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 11; ++i) ring.push(make_event(i));
  EXPECT_EQ(ring.pushed(), 11u);
  EXPECT_EQ(ring.size(), 4u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-to-newest: 7, 8, 9, 10.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].wall_ns, 7u + i);
  }
}

TEST(ObsRingTest, ClearResets) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) ring.push(make_event(i));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
  ring.push(make_event(42));
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].wall_ns, 42u);
}

TEST(ObsRingTest, ZeroCapacityIsClampedToOne) {
  EventRing ring(0);
  EXPECT_EQ(ring.capacity(), 1u);
  ring.push(make_event(1));
  ring.push(make_event(2));
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.snapshot()[0].wall_ns, 2u);
  EXPECT_EQ(ring.dropped(), 1u);
}

TEST(ObsRingTest, DisposalAccountingIsExhaustive) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 11; ++i) ring.push(make_event(i));
  // Every pushed event is retained, drained, or dropped — no fourth
  // fate (v1 silently overwrote; the dropped counter is the fix).
  EXPECT_EQ(ring.pushed(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);
  EXPECT_EQ(ring.drained(), 0u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped() + ring.size());
}

TEST(ObsRingTest, DrainConsumesOldestToNewest) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 6; ++i) ring.push(make_event(i));
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.drain(out), 4u);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(out[i].wall_ns, 2u + i);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
  // drain() appends: a second pass after more pushes extends `out`.
  ring.push(make_event(40));
  EXPECT_EQ(ring.drain(out), 1u);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out.back().wall_ns, 40u);
}

TEST(ObsRingTest, SnapshotDoesNotConsume) {
  EventRing ring(4);
  ring.push(make_event(1));
  EXPECT_EQ(ring.snapshot().size(), 1u);
  EXPECT_EQ(ring.snapshot().size(), 1u);
  EXPECT_EQ(ring.drained(), 0u);
  EXPECT_EQ(ring.size(), 1u);
}

// counts() is one reading under the ring's lock: while another thread
// pushes and this one drains, every reading satisfies the identity and
// never shows more retained events than the ring holds.
TEST(ObsRingTest, CountsAreOneConsistentReadingWhileAnotherThreadPushes) {
  constexpr std::uint64_t kPushes = 50'000;
  EventRing ring(8);
  std::atomic<bool> done{false};
  std::thread pusher([&] {
    for (std::uint64_t i = 0; i < kPushes; ++i) ring.push(make_event(i));
    done.store(true, std::memory_order_release);
  });
  std::vector<TraceEvent> out;
  std::uint64_t last_pushed = 0;
  std::size_t readings = 0;
  std::size_t broken = 0;
  while (!done.load(std::memory_order_acquire)) {
    const RingCounts c = ring.counts();
    ++readings;
    if (c.pushed != c.drained + c.dropped + c.size || c.size > 8 ||
        c.pushed < last_pushed) {
      ++broken;
    }
    last_pushed = c.pushed;
    if (readings % 16 == 0) (void)ring.drain(out);
  }
  pusher.join();
  (void)ring.drain(out);
  EXPECT_EQ(broken, 0u) << broken << " of " << readings << " readings";
  const RingCounts c = ring.counts();
  EXPECT_EQ(c.pushed, kPushes);
  EXPECT_EQ(c.pushed, c.drained + c.dropped);
  EXPECT_EQ(out.size(), c.drained);
}

}  // namespace
}  // namespace lexfor::obs
