#include "netsim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "oracles/heap_event_queue.h"
#include "util/rng.h"

namespace lexfor::netsim {
namespace {

using oracles::HeapEventQueue;

TEST(EventQueueTest, EventsFireInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(SimTime::from_ms(30), [&] { order.push_back(3); });
  q.schedule_at(SimTime::from_ms(10), [&] { order.push_back(1); });
  q.schedule_at(SimTime::from_ms(20), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SimultaneousEventsFireFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(SimTime::from_ms(5), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueueTest, ClockAdvancesToEventTime) {
  EventQueue q;
  SimTime seen;
  q.schedule_at(SimTime::from_ms(42), [&] { seen = q.now(); });
  q.run();
  EXPECT_EQ(seen, SimTime::from_ms(42));
  EXPECT_EQ(q.now(), SimTime::from_ms(42));
}

TEST(EventQueueTest, ScheduleInIsRelative) {
  EventQueue q;
  SimTime first, second;
  q.schedule_at(SimTime::from_ms(10), [&] {
    first = q.now();
    q.schedule_in(SimDuration::from_ms(5), [&] { second = q.now(); });
  });
  q.run();
  EXPECT_EQ(first, SimTime::from_ms(10));
  EXPECT_EQ(second, SimTime::from_ms(15));
}

TEST(EventQueueTest, PastEventsClampToNow) {
  EventQueue q;
  bool fired = false;
  q.schedule_at(SimTime::from_ms(100), [&] {
    q.schedule_at(SimTime::from_ms(1), [&] {
      fired = true;
      EXPECT_EQ(q.now(), SimTime::from_ms(100));  // not time travel
    });
  });
  q.run();
  EXPECT_TRUE(fired);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(SimTime::from_ms(10), [&] { ++fired; });
  q.schedule_at(SimTime::from_ms(20), [&] { ++fired; });
  q.schedule_at(SimTime::from_ms(30), [&] { ++fired; });
  q.run_until(SimTime::from_ms(20));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.now(), SimTime::from_ms(20));
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueueTest, RunUntilAdvancesClockWhenQueueDrains) {
  EventQueue q;
  q.run_until(SimTime::from_sec(5));
  EXPECT_EQ(q.now(), SimTime::from_sec(5));
}

TEST(EventQueueTest, StepReturnsFalseWhenEmpty) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, ProcessedCountsEvents) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule_in(SimDuration::from_ms(i), [] {});
  q.run();
  EXPECT_EQ(q.processed(), 5u);
}

TEST(EventQueueTest, RunWithLimitStopsEarly) {
  EventQueue q;
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    q.schedule_in(SimDuration::from_ms(i), [&] { ++fired; });
  }
  q.run(3);
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.pending(), 7u);
}

TEST(EventQueueTest, WheelGrowsAndShrinksWithLoad) {
  EventQueue q;
  // Spread times so every event gets its own window: occupancy drives
  // the wheel up, then the drain shrinks it back down.
  for (int i = 0; i < 4096; ++i) {
    q.schedule_at(SimTime::from_us(i * 100), [] {});
  }
  const std::size_t grown = q.bucket_count();
  EXPECT_GT(grown, 16u);
  q.run();
  EXPECT_LT(q.bucket_count(), grown);
  EXPECT_EQ(q.processed(), 4096u);
}

// ---- property tests: the calendar queue against the heap oracle ------
//
// oracles::HeapEventQueue is the binary-heap queue the calendar queue
// replaced.  Any observable divergence — firing order, clock, pending
// counts — is a bug in the calendar queue, so the oracle replays
// identical scripts.

// Replays `n_roots` randomized schedules; root events with id % 5 == 0
// spawn two children from inside their callback, one of them in the
// past (to cross the clamp rule).  Child ids come from a counter, so
// they are assigned in firing order — a queue that fires out of oracle
// order diverges in the trace immediately.
template <typename Queue>
std::vector<std::pair<int, std::int64_t>> trace_random_run(std::uint64_t seed,
                                                           int n_roots,
                                                           std::int64_t span) {
  constexpr int kChildBase = 1'000'000'000;
  Queue q;
  std::vector<std::pair<int, std::int64_t>> trace;
  Rng rng{seed};
  int next_child = kChildBase;
  std::function<void(int)> fire = [&](int id) {
    trace.emplace_back(id, q.now().us);
    if (id % 5 == 0 && id < kChildBase) {  // roots only
      const int a = next_child++;
      const int b = next_child++;
      q.schedule_at(q.now() + SimDuration::from_us(id % 17),
                    [&fire, a] { fire(a); });
      q.schedule_at(SimTime::from_us(q.now().us - 3), [&fire, b] { fire(b); });
    }
  };
  for (int i = 0; i < n_roots; ++i) {
    q.schedule_at(
        SimTime::from_us(static_cast<std::int64_t>(
            rng.uniform(static_cast<std::uint64_t>(span)))),
        [&fire, i] { fire(i); });
  }
  q.run();
  return trace;
}

TEST(EventQueueOracleTest, RandomScheduleFiresInOracleOrder) {
  for (const std::uint64_t seed : {2ull, 99ull, 4242ull}) {
    const auto expected = trace_random_run<HeapEventQueue>(seed, 500, 10'000);
    const auto actual = trace_random_run<EventQueue>(seed, 500, 10'000);
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

TEST(EventQueueOracleTest, DenseCollisionsFireInOracleOrder) {
  // Few distinct timestamps, many events: maximal bucket collision.
  const auto expected = trace_random_run<HeapEventQueue>(7, 2'000, 13);
  const auto actual = trace_random_run<EventQueue>(7, 2'000, 13);
  EXPECT_EQ(actual, expected);
}

TEST(EventQueueOracleTest, SparseFarFutureFiresInOracleOrder) {
  // Wide span, few events: the cursor must revolve or jump, never skip.
  const auto expected =
      trace_random_run<HeapEventQueue>(13, 64, 50'000'000);
  const auto actual = trace_random_run<EventQueue>(13, 64, 50'000'000);
  EXPECT_EQ(actual, expected);
}

TEST(EventQueueOracleTest, ResizeCrossingKeepsOrder) {
  // Enough load to force several grow rehashes on the way up and shrink
  // rehashes on the way down; order must be oracle-identical throughout.
  const auto expected = trace_random_run<HeapEventQueue>(21, 5'000, 500'000);
  const auto actual = trace_random_run<EventQueue>(21, 5'000, 500'000);
  EXPECT_EQ(actual, expected);
}

template <typename Queue>
std::pair<std::vector<int>, std::int64_t> run_until_script(std::int64_t stop_us) {
  Queue q;
  std::vector<int> order;
  for (int i = 0; i < 50; ++i) {
    q.schedule_at(SimTime::from_us(i * 10), [&order, i] { order.push_back(i); });
  }
  q.run_until(SimTime::from_us(stop_us));
  return {order, q.now().us};
}

TEST(EventQueueOracleTest, RunUntilMatchesOracleAtEveryBoundary) {
  for (const std::int64_t stop : {0L, 5L, 10L, 245L, 490L, 1'000L}) {
    const auto expected = run_until_script<HeapEventQueue>(stop);
    const auto actual = run_until_script<EventQueue>(stop);
    EXPECT_EQ(actual.first, expected.first) << "stop=" << stop;
    EXPECT_EQ(actual.second, expected.second) << "stop=" << stop;
  }
}

TEST(EventQueueOracleTest, RunLimitMatchesOracleStepForStep) {
  HeapEventQueue oracle;
  EventQueue q;
  std::vector<int> oracle_order;
  std::vector<int> order;
  for (int i = 0; i < 100; ++i) {
    const std::int64_t at = (i * 37) % 50;  // collisions included
    oracle.schedule_at(SimTime::from_us(at),
                       [&oracle_order, i] { oracle_order.push_back(i); });
    q.schedule_at(SimTime::from_us(at), [&order, i] { order.push_back(i); });
  }
  while (!oracle.empty()) {
    oracle.run(7);
    q.run(7);
    ASSERT_EQ(q.pending(), oracle.pending());
    ASSERT_EQ(q.processed(), oracle.processed());
    ASSERT_EQ(order, oracle_order);
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace lexfor::netsim
