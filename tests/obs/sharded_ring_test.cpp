#include "obs/sharded_ring.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "obs/tracer.h"
#include "util/thread_pool.h"

namespace lexfor::obs {
namespace {

TraceEvent make_event(std::uint64_t wall_ns, std::string name = {}) {
  TraceEvent ev;
  ev.wall_ns = wall_ns;
  ev.name = name.empty() ? "e" + std::to_string(wall_ns) : std::move(name);
  ev.category = "test";
  return ev;
}

bool is_time_ordered(const std::vector<TraceEvent>& events) {
  for (std::size_t i = 1; i < events.size(); ++i) {
    if (events[i - 1].wall_ns > events[i].wall_ns) return false;
    if (events[i - 1].wall_ns == events[i].wall_ns &&
        events[i - 1].seq >= events[i].seq) {
      return false;
    }
  }
  return true;
}

TEST(ObsShardedRingTest, StartsEmptyWithNoShards) {
  ShardedEventRing ring(8);
  EXPECT_EQ(ring.shard_count(), 0u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(ObsShardedRingTest, SingleThreadKeepsOrderAndStampsSeq) {
  ShardedEventRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.push(make_event(100 + i));
  EXPECT_EQ(ring.shard_count(), 1u);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].wall_ns, 100 + i);
    EXPECT_EQ(events[i].seq, i + 1);  // 1-based claim order
  }
}

TEST(ObsShardedRingTest, SeqBreaksWallClockTies) {
  ShardedEventRing ring(8);
  ring.push(make_event(7, "first"));
  ring.push(make_event(7, "second"));
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "first");
  EXPECT_EQ(events[1].name, "second");
  EXPECT_LT(events[0].seq, events[1].seq);
}

TEST(ObsShardedRingTest, DrainConsumesAndBalancesAccounting) {
  ShardedEventRing ring(8);
  for (std::uint64_t i = 0; i < 6; ++i) ring.push(make_event(i));
  const auto events = ring.drain();
  EXPECT_EQ(events.size(), 6u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
  // A second drain returns nothing new.
  EXPECT_TRUE(ring.drain().empty());
  // Post-drain pushes keep the sequence monotonic.
  ring.push(make_event(99));
  const auto more = ring.drain();
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0].seq, 7u);
}

TEST(ObsShardedRingTest, WraparoundDropsAreCountedExhaustively) {
  ShardedEventRing ring(4);
  for (std::uint64_t i = 0; i < 11; ++i) ring.push(make_event(i));
  EXPECT_EQ(ring.pushed(), 11u);
  EXPECT_EQ(ring.dropped(), 7u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped() + ring.size());
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].wall_ns, 7u + i);
  // The satellite invariant: after the final drain every pushed event
  // is accounted for as drained or dropped.
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
}

TEST(ObsShardedRingTest, ClearEmptiesButKeepsSeqMonotonic) {
  ShardedEventRing ring(4);
  for (std::uint64_t i = 0; i < 3; ++i) ring.push(make_event(i));
  ring.clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_EQ(ring.shard_count(), 1u);  // registration survives clear
  ring.push(make_event(50));
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GT(events[0].seq, 3u);  // global sequence did not rewind
}

TEST(ObsShardedRingTest, TwoRingsOnOneThreadStayIsolated) {
  ShardedEventRing a(8);
  ShardedEventRing b(8);
  a.push(make_event(1, "into-a"));
  b.push(make_event(2, "into-b"));
  const auto from_a = a.snapshot();
  const auto from_b = b.snapshot();
  ASSERT_EQ(from_a.size(), 1u);
  ASSERT_EQ(from_b.size(), 1u);
  EXPECT_EQ(from_a[0].name, "into-a");
  EXPECT_EQ(from_b[0].name, "into-b");
}

TEST(ObsShardedRingTest, EightThreadStressMergesWithoutLossOrDisorder) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 2'000;
  // Shard capacity >= per-thread volume: nothing may drop.
  ShardedEventRing ring(kPerThread);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceEvent ev;
        ev.wall_ns = i;  // heavy cross-thread ties; seq must break them
        ev.tid = static_cast<std::uint32_t>(t);
        ev.value = static_cast<std::int64_t>(i);
        ev.category = "stress";
        ev.name = "s";
        ring.push(std::move(ev));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(ring.shard_count(), kThreads);
  EXPECT_EQ(ring.pushed(), kThreads * kPerThread);
  EXPECT_EQ(ring.dropped(), 0u);

  const auto events = ring.drain();
  ASSERT_EQ(events.size(), kThreads * kPerThread);
  EXPECT_TRUE(is_time_ordered(events));

  // Every seq is unique and every per-thread stream arrived complete
  // and in emission order.
  std::set<std::uint64_t> seqs;
  std::vector<std::int64_t> last_value(kThreads, -1);
  for (const TraceEvent& ev : events) {
    EXPECT_TRUE(seqs.insert(ev.seq).second) << "duplicate seq " << ev.seq;
    ASSERT_LT(ev.tid, kThreads);
    EXPECT_EQ(ev.value, last_value[ev.tid] + 1)
        << "thread " << ev.tid << " stream reordered or lossy";
    last_value[ev.tid] = ev.value;
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(last_value[t], static_cast<std::int64_t>(kPerThread) - 1);
  }
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
}

TEST(ObsShardedRingTest, EightThreadOverflowKeepsAccountingExhaustive) {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 1'000;
  ShardedEventRing ring(64);  // tiny shards: most events must drop
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ring] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ring.push(make_event(i));
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(ring.pushed(), kThreads * kPerThread);
  EXPECT_GT(ring.dropped(), 0u);
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped() + ring.size());
  for (std::size_t i = 0; i < ring.shard_count(); ++i) {
    const EventRing& shard = ring.shard(i);
    EXPECT_EQ(shard.pushed(),
              shard.drained() + shard.dropped() + shard.size());
  }
  const auto events = ring.drain();
  EXPECT_EQ(events.size(), kThreads * 64u);
  EXPECT_TRUE(is_time_ordered(events));
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
}

TEST(ObsShardedRingTest, TracerDrainMergesAndEmptiesRing) {
  Tracer t;
  t.set_level(Level::kDebug);
  t.instant(Level::kInfo, "test", "one");
  t.instant(Level::kInfo, "test", "two");
  const auto events = t.ring().drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_TRUE(is_time_ordered(events));
  EXPECT_EQ(t.ring().size(), 0u);
  EXPECT_EQ(t.ring().pushed(), t.ring().drained() + t.ring().dropped());
}

TEST(ObsShardedRingTest, ThreadsExitingOneAfterAnotherShareOneShard) {
  // 1,000 threads, one live at a time, each pushing one event: every
  // thread takes over the shard the previous one left, and every event
  // an exited thread pushed still drains, in order.
  constexpr std::uint64_t kThreads = 1'000;
  ShardedEventRing ring(4096);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    std::thread([&ring, t] {
      TraceEvent ev = make_event(t);
      ev.value = static_cast<std::int64_t>(t);
      ring.push(std::move(ev));
    }).join();
  }
  EXPECT_LE(ring.shard_count(), 1u);
  EXPECT_EQ(ring.pushed(), kThreads);
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped() + ring.size());
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), kThreads);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(events[t].value, static_cast<std::int64_t>(t));
  }
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
}

TEST(ObsShardedRingTest, WavesOfThreadsKeepTheShardCountAtThePeak) {
  // 250 waves of four concurrent threads (1,000 in all): never more
  // shards than threads alive at once, and nothing lost.
  constexpr std::size_t kWaves = 250;
  constexpr std::size_t kWidth = 4;
  ShardedEventRing ring(4096);
  for (std::size_t w = 0; w < kWaves; ++w) {
    std::vector<std::thread> wave;
    for (std::size_t t = 0; t < kWidth; ++t) {
      wave.emplace_back([&ring, w] { ring.push(make_event(w)); });
    }
    for (auto& th : wave) th.join();
  }
  EXPECT_LE(ring.shard_count(), kWidth);
  EXPECT_EQ(ring.pushed(), kWaves * kWidth);
  const auto events = ring.drain();
  EXPECT_EQ(events.size(), kWaves * kWidth);
  EXPECT_TRUE(is_time_ordered(events));
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
}

TEST(ObsShardedRingTest, FanOutWorkersRegisterOneShardEach) {
  // The process-wide pool never exits a worker, so however many calls
  // fan out, the caller and each pool worker register one shard, once.
  constexpr std::uint64_t kCalls = 50;
  constexpr std::uint64_t kIndices = 64;
  ShardedEventRing ring(4096);
  for (std::uint64_t call = 0; call < kCalls; ++call) {
    util::parallel_for(kIndices, 4, [&ring, call](std::size_t i) {
      ring.push(make_event(call * kIndices + i));
    });
  }
  EXPECT_LE(ring.shard_count(), 1 + util::ThreadPool::process_wide().size());
  EXPECT_EQ(ring.pushed(), kCalls * kIndices);
  EXPECT_EQ(ring.drain().size(), kCalls * kIndices);
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
}

TEST(ObsShardedRingTest, FullShardOfAnExitedThreadWaitsForADrain) {
  // Taking over a full shard would overwrite an event its exited thread
  // left undrained, so the next thread gets a new shard; once a drain
  // has emptied it, the old shard is taken over again.
  ShardedEventRing ring(4);
  const auto push_from_new_thread = [&ring](std::uint64_t first,
                                            std::uint64_t count) {
    std::thread([&ring, first, count] {
      for (std::uint64_t i = 0; i < count; ++i) {
        ring.push(make_event(first + i));
      }
    }).join();
  };
  push_from_new_thread(0, 4);  // fills its shard, exits
  push_from_new_thread(10, 1);
  EXPECT_EQ(ring.shard_count(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  EXPECT_EQ(ring.drain().size(), 5u);
  push_from_new_thread(20, 1);
  push_from_new_thread(30, 1);
  EXPECT_EQ(ring.shard_count(), 2u);
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].wall_ns, 20u);
  EXPECT_EQ(events[1].wall_ns, 30u);
  EXPECT_EQ(ring.pushed(), ring.drained() + ring.dropped());
}

TEST(ObsShardedRingTest, HandedOverEventsLastUntilTheNewHolderWraps) {
  // An exited thread's shard goes to the next thread while it is not
  // full, and that thread's pushes may wrap it: the first two threads'
  // 1,000 events share one shard, the third fills it and overwrites
  // 476 of them (counted as dropped), and the fourth, finding it full,
  // gets a second shard.
  constexpr std::uint64_t kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  ShardedEventRing ring(1024);
  for (std::uint64_t t = 0; t < kThreads; ++t) {
    std::thread([&ring, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        ring.push(make_event(t * kPerThread + i));
      }
    }).join();
  }
  EXPECT_EQ(ring.shard_count(), 2u);
  const auto events = ring.drain();
  EXPECT_EQ(events.size(), 1524u);
  const RingCounts c = ring.counts();
  EXPECT_EQ(c.pushed, kThreads * kPerThread);
  EXPECT_EQ(c.dropped, 476u);
  EXPECT_EQ(c.drained, events.size());
  EXPECT_EQ(c.pushed, c.drained + c.dropped + c.size);
  // The overwritten events are the oldest: the first thread's 476.
  EXPECT_EQ(events.front().wall_ns, 476u);
  EXPECT_TRUE(is_time_ordered(events));
}

TEST(ObsShardedRingTest, RingDestroyedBeforeItsThreadExitsIsSafe) {
  // The thread registers, the ring goes away, then the thread exits and
  // releases its shard: the release must not touch the dead ring.  A
  // second ring the same thread used afterwards still works.
  auto ring = std::make_unique<ShardedEventRing>(16);
  ShardedEventRing survivor(16);
  std::atomic<int> stage{0};
  std::thread worker([&] {
    ring->push(make_event(1));
    stage.store(1);
    while (stage.load() != 2) std::this_thread::yield();
    survivor.push(make_event(2));
  });
  while (stage.load() != 1) std::this_thread::yield();
  EXPECT_EQ(ring->drain().size(), 1u);
  ring.reset();
  stage.store(2);
  worker.join();
  EXPECT_EQ(survivor.drain().size(), 1u);
  // The survivor's shard was handed back at exit: a new thread takes it.
  std::thread([&survivor] { survivor.push(make_event(3)); }).join();
  EXPECT_EQ(survivor.shard_count(), 1u);
}

}  // namespace
}  // namespace lexfor::obs
