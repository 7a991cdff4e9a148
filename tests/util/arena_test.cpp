#include "util/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

namespace lexfor::util {
namespace {

TEST(ArenaTest, AllocationsAreAligned) {
  Arena arena;
  for (std::size_t align : {1u, 2u, 4u, 8u, 16u}) {
    void* p = arena.allocate(3, align);
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
        << "align=" << align;
  }
}

TEST(ArenaTest, OverAlignedAllocationsAreAddressAligned) {
  // A 64-byte (cache-line) or wider alignment applies to the ADDRESS,
  // even when the chunk base is only 16-byte aligned, and even
  // mid-chunk after odd-sized neighbours.
  Arena arena;
  for (int i = 0; i < 200; ++i) {
    (void)arena.allocate(static_cast<std::size_t>(1 + i % 7), 1);
    for (std::size_t align : {32u, 64u, 128u}) {
      void* p = arena.allocate(24, align);
      ASSERT_NE(p, nullptr);
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
          << "align=" << align << " iteration=" << i;
    }
  }
}

TEST(ArenaTest, AlignedArraysSpanChunkBoundaries) {
  // Force chunk turnover with large aligned arrays: every array must be
  // aligned and fully writable wherever it lands.
  Arena arena(4096);
  for (int i = 0; i < 32; ++i) {
    auto* lane = static_cast<double*>(arena.allocate(300 * sizeof(double), 64));
    ASSERT_NE(lane, nullptr);
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(lane) % 64, 0u);
    for (int j = 0; j < 300; ++j) lane[j] = i * 1000.0 + j;
    for (int j = 0; j < 300; ++j) ASSERT_EQ(lane[j], i * 1000.0 + j);
  }
  EXPECT_GT(arena.chunk_count(), 1u);
}

TEST(ArenaTest, AlignedAllocationSurvivesReset) {
  Arena arena;
  (void)arena.allocate(13, 1);  // leave the bump offset unaligned
  void* first = arena.allocate(512, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(first) % 64, 0u);
  arena.reset();
  (void)arena.allocate(5, 1);
  void* again = arena.allocate(512, 64);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(again) % 64, 0u);
}

TEST(ArenaTest, AllocArrayIsWritable) {
  Arena arena;
  constexpr std::size_t kN = 1000;
  std::uint32_t* a = arena.alloc_array<std::uint32_t>(kN);
  for (std::size_t i = 0; i < kN; ++i) a[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i], static_cast<std::uint32_t>(i));
  }
}

TEST(ArenaTest, AllocationsDoNotOverlap) {
  Arena arena;
  std::vector<std::uint8_t*> blocks;
  for (int i = 0; i < 100; ++i) {
    auto* b = arena.alloc_array<std::uint8_t>(17);
    std::fill(b, b + 17, static_cast<std::uint8_t>(i));
    blocks.push_back(b);
  }
  for (int i = 0; i < 100; ++i) {
    for (int j = 0; j < 17; ++j) {
      ASSERT_EQ(blocks[static_cast<std::size_t>(i)][j],
                static_cast<std::uint8_t>(i));
    }
  }
}

TEST(ArenaTest, GrowsBeyondOneChunk) {
  Arena arena;
  // Allocate well past the default chunk size.
  for (int i = 0; i < 64; ++i) {
    ASSERT_NE(arena.alloc_array<std::uint8_t>(8192), nullptr);
  }
  EXPECT_GT(arena.chunk_count(), 1u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(ArenaTest, OversizedAllocationGetsItsOwnChunk) {
  Arena arena;
  auto* big = arena.alloc_array<std::uint8_t>(1 << 20);
  ASSERT_NE(big, nullptr);
  big[0] = 1;
  big[(1 << 20) - 1] = 2;
  EXPECT_EQ(big[0], 1);
  EXPECT_EQ(big[(1 << 20) - 1], 2);
}

TEST(ArenaTest, ResetRetainsReservedMemory) {
  Arena arena;
  for (int i = 0; i < 64; ++i) (void)arena.alloc_array<std::uint64_t>(1024);
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t chunks = arena.chunk_count();
  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.chunk_count(), chunks);
  // Memory is reusable after reset.
  auto* p = arena.alloc_array<std::uint64_t>(1024);
  ASSERT_NE(p, nullptr);
  p[0] = 42;
  EXPECT_EQ(p[0], 42u);
}

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
