// serve::VerdictTable — the verdict server's lock-free compact verdict
// table: hits, overwrites, growth that keeps every entry, in-set
// replacement past the capacity, and lookups racing inserts.

#include "serve/verdict_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "util/rng.h"

namespace lexfor::serve {
namespace {

constexpr std::uint64_t kKeyMask =
    (std::uint64_t{1} << legal::kFactKeyBits) - 1;

// Every verdict the wire can carry: needs_process 0-1, process and
// proof 0-4, as a function of the key so any hit can be checked.
[[nodiscard]] CompactVerdict verdict_of(legal::FactKey key) {
  return CompactVerdict{static_cast<std::uint8_t>(key.bits & 1),
                        static_cast<std::uint8_t>((key.bits >> 1) % 5),
                        static_cast<std::uint8_t>((key.bits >> 4) % 5)};
}

[[nodiscard]] bool same(CompactVerdict a, CompactVerdict b) {
  return a.needs_process == b.needs_process &&
         a.required_process == b.required_process &&
         a.required_proof == b.required_proof;
}

[[nodiscard]] std::vector<legal::FactKey> random_keys(std::size_t n,
                                                      std::uint64_t seed) {
  Rng rng(seed);
  std::set<std::uint64_t> seen;
  std::vector<legal::FactKey> keys;
  while (keys.size() < n) {
    const std::uint64_t bits = rng() & kKeyMask;
    if (seen.insert(bits).second) keys.push_back(legal::FactKey{bits});
  }
  return keys;
}

TEST(VerdictTableTest, AMissThenAHitForEveryVerdict) {
  VerdictTable table(1 << 10);
  std::uint64_t bits = 0x1234;
  for (std::uint8_t needs = 0; needs <= 1; ++needs) {
    for (std::uint8_t process = 0; process <= 4; ++process) {
      for (std::uint8_t proof = 0; proof <= 4; ++proof) {
        const legal::FactKey key{bits++ * 0x9E3779B97F4A7Cull & kKeyMask};
        const CompactVerdict v{needs, process, proof};
        EXPECT_FALSE(table.get(key).has_value());
        table.put(key, v);
        const auto hit = table.get(key);
        ASSERT_TRUE(hit.has_value());
        EXPECT_TRUE(same(*hit, v));
      }
    }
  }
  EXPECT_EQ(table.size(), 50u);
}

TEST(VerdictTableTest, ASecondPutOfTheSameKeyOverwritesTheFirst) {
  VerdictTable table(64);
  const legal::FactKey key{0xABCDEF};
  table.put(key, CompactVerdict{1, 4, 4});
  table.put(key, CompactVerdict{0, 2, 1});
  const auto hit = table.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same(*hit, CompactVerdict{0, 2, 1}));
  EXPECT_EQ(table.size(), 1u);
}

// An all-zero word is an empty way; the valid bit is what tells key 0
// with an all-zero verdict apart from it.
TEST(VerdictTableTest, KeyZeroWithAnAllZeroVerdictIsAHit) {
  VerdictTable table(64);
  const legal::FactKey zero{0};
  EXPECT_FALSE(table.get(zero).has_value());
  table.put(zero, CompactVerdict{});
  const auto hit = table.get(zero);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same(*hit, CompactVerdict{}));
  EXPECT_FALSE(table.get(legal::FactKey{1}).has_value());
}

// Below its capacity the table grows instead of evicting, and a
// doubling splits each set in two, so every entry survives it.
TEST(VerdictTableTest, GrowthUpToTheCapacityKeepsEveryEntry) {
  VerdictTable table(1 << 12);
  ASSERT_EQ(table.capacity(), 1u << 12);
  ASSERT_EQ(table.allocated(),
            VerdictTable::kInitialSets * VerdictTable::kWays);
  const auto keys = random_keys(1 << 12, 7);
  std::size_t held = 0;
  for (const legal::FactKey key : keys) {
    table.put(key, verdict_of(key));
    if (table.allocated() == table.capacity()) break;
    ++held;
    ASSERT_EQ(table.size(), held);
  }
  // The table reached its capacity, so it doubled six times.
  ASSERT_EQ(table.allocated(), table.capacity());
  EXPECT_GT(held, VerdictTable::kInitialSets * VerdictTable::kWays);
  for (std::size_t i = 0; i < held; ++i) {
    const auto hit = table.get(keys[i]);
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_TRUE(same(*hit, verdict_of(keys[i]))) << i;
  }
}

// At its capacity a full set replaces one of its ways: each insert is
// held afterwards, displaces at most one entry and only when the table
// did not grow, and no lookup ever answers with another key's verdict.
TEST(VerdictTableTest, PastTheCapacityAnInsertEvictsWithinItsSet) {
  VerdictTable table(16);
  ASSERT_EQ(table.capacity(), 16u);
  const auto keys = random_keys(400, 11);
  std::vector<bool> was_held(keys.size(), false);
  std::size_t evictions = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const std::size_t size_before = table.size();
    table.put(keys[i], verdict_of(keys[i]));
    const std::size_t size_after = table.size();
    EXPECT_LE(size_after, table.capacity());
    std::size_t lost = 0;
    for (std::size_t j = 0; j <= i; ++j) {
      const auto hit = table.get(keys[j]);
      if (hit.has_value()) {
        ASSERT_TRUE(same(*hit, verdict_of(keys[j]))) << j;
      } else if (was_held[j]) {
        ++lost;
      }
      was_held[j] = hit.has_value();
    }
    ASSERT_TRUE(was_held[i]) << "insert " << i << " is not held";
    ASSERT_LE(lost, 1u) << "insert " << i;
    if (lost == 1) {
      EXPECT_EQ(size_after, size_before) << "insert " << i;
      ++evictions;
    } else {
      EXPECT_EQ(size_after, size_before + 1) << "insert " << i;
    }
  }
  EXPECT_EQ(table.size(), table.capacity());
  EXPECT_EQ(evictions, keys.size() - table.capacity());
}

TEST(VerdictTableTest, CapacityZeroActsAsOne) {
  VerdictTable zero(0);
  const VerdictTable one(1);
  EXPECT_EQ(zero.capacity(), one.capacity());
  EXPECT_EQ(zero.allocated(), one.allocated());
  const legal::FactKey key{42};
  zero.put(key, CompactVerdict{1, 3, 3});
  const auto hit = zero.get(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(same(*hit, CompactVerdict{1, 3, 3}));
}

// Four threads look up and insert over one key set, with the table
// growing and then evicting under them: every hit must carry its own
// key's verdict.
TEST(VerdictTableTest, ConcurrentLookupsAndInsertsNeverCrossKeys) {
  constexpr unsigned kThreads = 4;
  constexpr int kOpsPerThread = 20'000;
  VerdictTable table(512);
  const auto keys = random_keys(2048, 13);
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> wrong{0};
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng = Rng::sub_stream(17, t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        // Half the draws from a hot eighth of the keys, so hits happen
        // while the rest keeps the table evicting.
        const std::size_t span = rng.uniform(2) == 0 ? keys.size() / 8
                                                     : keys.size();
        const legal::FactKey key = keys[rng.uniform(span)];
        if (const auto hit = table.get(key)) {
          hits.fetch_add(1, std::memory_order_relaxed);
          if (!same(*hit, verdict_of(key))) {
            wrong.fetch_add(1, std::memory_order_relaxed);
          }
        } else {
          table.put(key, verdict_of(key));
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(hits.load(), 0u);
  EXPECT_EQ(table.allocated(), table.capacity());
  EXPECT_LE(table.size(), table.capacity());
}

}  // namespace
}  // namespace lexfor::serve
