#include "util/pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

namespace lexfor::util {
namespace {

TEST(PoolTest, AcquireReturnsDistinctHandles) {
  Pool<int> pool;
  std::set<Pool<int>::Handle> handles;
  for (int i = 0; i < 100; ++i) {
    const auto h = pool.acquire();
    ASSERT_NE(h, Pool<int>::kNull);
    EXPECT_TRUE(handles.insert(h).second) << "duplicate live handle";
    pool[h] = i;
  }
  EXPECT_EQ(pool.live(), 100u);
}

TEST(PoolTest, ReleaseRecyclesSlots) {
  Pool<int> pool;
  const auto a = pool.acquire();
  const auto b = pool.acquire();
  pool.release(a);
  EXPECT_EQ(pool.live(), 1u);
  // LIFO freelist: the released slot comes back first; capacity is flat.
  const auto c = pool.acquire();
  EXPECT_EQ(c, a);
  EXPECT_EQ(pool.capacity(), 2u);
  pool.release(b);
  pool.release(c);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(PoolTest, HandlesStayValidAcrossGrowth) {
  Pool<std::uint64_t> pool;
  std::vector<Pool<std::uint64_t>::Handle> handles;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto h = pool.acquire();
    pool[h] = i * i;
    handles.push_back(h);
  }
  for (std::uint64_t i = 0; i < 1000; ++i) {
    ASSERT_EQ(pool[handles[static_cast<std::size_t>(i)]], i * i);
  }
}

TEST(PoolTest, SlotsHonourOverAlignedTypes) {
  // The documented alignment guarantee: slots of an over-aligned T all
  // sit on alignof(T) boundaries, across growth.
  struct alignas(64) Lane {
    double acc[8];
  };
  Pool<Lane> pool;
  std::vector<Pool<Lane>::Handle> handles;
  for (int i = 0; i < 257; ++i) handles.push_back(pool.acquire());
  for (const auto h : handles) {
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(&pool[h]) % alignof(Lane), 0u);
  }
}

// A released slot keeps its T, so a recycled buffer comes back with the
// capacity it grew to: the connection slots and route paths rely on it.
TEST(PoolTest, ReleasedSlotKeepsWhatItOwns) {
  Pool<std::vector<int>> pool;
  const auto h = pool.acquire();
  pool[h].assign(1000, 7);
  const int* const data = pool[h].data();
  pool.release(h);

  const auto again = pool.acquire();
  ASSERT_EQ(again, h);
  EXPECT_EQ(pool[again].size(), 1000u);  // the caller overwrites
  EXPECT_GE(pool[again].capacity(), 1000u);
  pool[again].clear();
  pool[again].resize(500, 1);
  EXPECT_EQ(pool[again].data(), data);  // no reallocation
}

TEST(PoolTest, ChurnHoldsCapacityFlat) {
  Pool<int> pool;
  std::vector<Pool<int>::Handle> live;
  for (int i = 0; i < 16; ++i) live.push_back(pool.acquire());
  const std::size_t cap = pool.capacity();
  for (int round = 0; round < 1000; ++round) {
    pool.release(live.back());
    live.pop_back();
    live.push_back(pool.acquire());
  }
  EXPECT_EQ(pool.capacity(), cap);
}

}  // namespace
}  // namespace lexfor::util
