#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace lexfor::util {
namespace {

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  // Width 8 is more than the pool has on a host with fewer than 8
  // hardware threads; width 0 runs inline like width 1.
  for (const unsigned width : {0u, 1u, 2u, 8u}) {
    std::vector<std::size_t> sizes = {0, 1, width, 1000};
    if (width > 0) sizes.push_back(width - 1);
    for (const std::size_t n : sizes) {
      std::vector<std::atomic<int>> runs(n);
      parallel_for(n, width, [&runs](std::size_t i) { runs[i].fetch_add(1); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "width " << width << ", n " << n << ", index " << i;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleChunk) {
  int calls = 0;
  parallel_for(0, 8, [&calls](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // One index runs inline on the caller, however wide the call.
  std::thread::id ran_on;
  parallel_for(1, 8, [&ran_on](std::size_t) {
    ran_on = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, ZeroRequestsHardwareConcurrency) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(resolve_width(0), hw);
  EXPECT_EQ(resolve_width(3), 3u);
  EXPECT_EQ(ThreadPool::process_wide().size(), hw);
}

TEST(ThreadPoolTest, WidthOneRunsOnTheCallingThread) {
  // Inline means on the caller and in index order, so a body may even
  // share unsynchronized state.
  const std::thread::id caller = std::this_thread::get_id();
  for (const unsigned width : {0u, 1u}) {
    std::vector<std::size_t> order;
    std::vector<std::thread::id> ran_on;
    parallel_for(100, width, [&](std::size_t i) {
      order.push_back(i);
      ran_on.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(order.size(), 100u);
    for (std::size_t i = 0; i < order.size(); ++i) {
      EXPECT_EQ(order[i], i) << "width " << width;
      EXPECT_EQ(ran_on[i], caller) << "width " << width << ", index " << i;
    }
  }
}

TEST(ThreadPoolTest, FanOutUsesAtMostWidthThreads) {
  // A call takes at most width - 1 helpers from the pool, whatever the
  // pool's size: that is the backpressure a wide call cannot escape.
  for (const unsigned width : {2u, 3u}) {
    std::mutex mu;
    std::set<std::thread::id> threads;
    parallel_for(2000, width, [&](std::size_t) {
      const std::scoped_lock lock(mu);
      threads.insert(std::this_thread::get_id());
    });
    EXPECT_LE(threads.size(), width);
  }
}

TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryIndexOnce) {
  // Four callers share the pool at once, each wider than the others
  // leave room for; every call still runs each of its indices once.
  std::vector<std::thread> callers;
  std::atomic<int> failures{0};
  for (unsigned c = 0; c < 4; ++c) {
    callers.emplace_back([&failures, c] {
      for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> runs(300 + c);
        parallel_for(runs.size(), 4,
                     [&runs](std::size_t i) { runs[i].fetch_add(1); });
        for (const auto& r : runs) {
          if (r.load() != 1) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ThreadPoolTest, NestedFanOutCompletes) {
  // A body that fans out again makes a pool worker a caller, and with
  // the outer call wider than the pool every worker can be one at once.
  // A caller claims its own indices and never waits on a helper that has
  // not started, so nesting cannot deadlock the pool.
  const unsigned width = ThreadPool::process_wide().size() + 1;
  const std::size_t outer_n = 4 * width;
  constexpr std::size_t kInner = 50;
  std::vector<std::atomic<int>> runs(outer_n * kInner);
  parallel_for(outer_n, width, [&runs, width](std::size_t outer) {
    parallel_for(kInner, width, [&runs, outer](std::size_t inner) {
      runs[outer * kInner + inner].fetch_add(1);
    });
  });
  for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
}

}  // namespace
}  // namespace lexfor::util
