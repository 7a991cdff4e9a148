// serve::VerdictTable — the verdict server's lock-free compact verdict
// table: hits, overwrites, growth that keeps every entry, in-set
// replacement past the capacity, and lookups racing inserts.

#include "serve/verdict_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>
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

// VerdictTable(4) is one set of four ways, so every key shares it and
// an insert takes the first empty way: the put order decides which way
// holds which key.
constexpr legal::FactKey kOneSetKeys[VerdictTable::kWays] = {
    {0x0123456789}, {0x0FEDCBA986}, {kKeyMask}, {0}};

[[nodiscard]] bool holds(const VerdictTable& table, legal::FactKey key,
                         CompactVerdict v) {
  const auto hit = table.get(key);
  return hit.has_value() && same(*hit, v);
}

TEST(VerdictTableTest, OneSetAnswersEveryKeyFromEveryWay) {
  ASSERT_EQ(VerdictTable(4).allocated(), VerdictTable::kWays);
  std::vector<std::size_t> order = {0, 1, 2, 3};
  std::set<std::pair<std::size_t, std::size_t>> key_way;
  do {
    VerdictTable table(4);
    for (const std::size_t k : order) {
      table.put(kOneSetKeys[k], verdict_of(kOneSetKeys[k]));
    }
    ASSERT_EQ(table.size(), VerdictTable::kWays);
    for (std::size_t way = 0; way < order.size(); ++way) {
      const legal::FactKey key = kOneSetKeys[order[way]];
      EXPECT_TRUE(holds(table, key, verdict_of(key)))
          << "key " << order[way] << " in way " << way;
      key_way.emplace(order[way], way);
    }
  } while (std::next_permutation(order.begin(), order.end()));
  EXPECT_EQ(key_way.size(), VerdictTable::kWays * VerdictTable::kWays);
}

// A key misses unless every key bit matches: a fifth key, a stored key
// with bit 0 or the top key bit flipped, and a stored key with a bit
// set that the word cannot hold (at or above bit 56).
TEST(VerdictTableTest, OneSetMissesEveryKeyItDoesNotHold) {
  VerdictTable table(4);
  for (const legal::FactKey key : kOneSetKeys) {
    table.put(key, verdict_of(key));
  }
  EXPECT_FALSE(table.get(legal::FactKey{0x0123456780}).has_value());
  constexpr std::uint64_t kTopKeyBit = std::uint64_t{1}
                                       << (legal::kFactKeyBits - 1);
  for (const legal::FactKey key : kOneSetKeys) {
    for (const std::uint64_t flip :
         {std::uint64_t{1}, kTopKeyBit, std::uint64_t{1} << 56,
          std::uint64_t{1} << 63}) {
      EXPECT_FALSE(table.get(legal::FactKey{key.bits ^ flip}).has_value())
          << std::hex << key.bits << " ^ " << flip;
    }
    EXPECT_TRUE(holds(table, key, verdict_of(key))) << std::hex << key.bits;
  }
}

// An overwrite changes only its key's answer; past the capacity an
// insert evicts way 0, then way 1, and every key still answers right.
TEST(VerdictTableTest, OneSetAnswersRightAfterAnOverwriteAndAnEviction) {
  VerdictTable table(4);
  for (const legal::FactKey key : kOneSetKeys) {
    table.put(key, verdict_of(key));
  }
  const CompactVerdict overwritten{1, 4, 4};
  table.put(kOneSetKeys[2], overwritten);
  EXPECT_EQ(table.size(), VerdictTable::kWays);
  EXPECT_TRUE(holds(table, kOneSetKeys[0], verdict_of(kOneSetKeys[0])));
  EXPECT_TRUE(holds(table, kOneSetKeys[1], verdict_of(kOneSetKeys[1])));
  EXPECT_TRUE(holds(table, kOneSetKeys[2], overwritten));
  EXPECT_TRUE(holds(table, kOneSetKeys[3], verdict_of(kOneSetKeys[3])));

  const legal::FactKey fifth{0xABCDE};
  const legal::FactKey sixth{0xABCDF};
  table.put(fifth, verdict_of(fifth));
  EXPECT_FALSE(table.get(kOneSetKeys[0]).has_value());
  EXPECT_TRUE(holds(table, fifth, verdict_of(fifth)));
  EXPECT_TRUE(holds(table, kOneSetKeys[1], verdict_of(kOneSetKeys[1])));
  table.put(sixth, verdict_of(sixth));
  EXPECT_FALSE(table.get(kOneSetKeys[1]).has_value());
  EXPECT_TRUE(holds(table, fifth, verdict_of(fifth)));
  EXPECT_TRUE(holds(table, sixth, verdict_of(sixth)));
  EXPECT_TRUE(holds(table, kOneSetKeys[2], overwritten));
  EXPECT_TRUE(holds(table, kOneSetKeys[3], verdict_of(kOneSetKeys[3])));
  EXPECT_EQ(table.size(), VerdictTable::kWays);
}

// CompactVerdict{1, 7, 7} sets every verdict bit of its word; none of
// them may take part in the key compare, in any way position.
TEST(VerdictTableTest, AnAllOnesVerdictStaysOutOfTheKeyCompare) {
  const CompactVerdict ones{1, 7, 7};
  for (std::size_t way = 0; way < VerdictTable::kWays; ++way) {
    VerdictTable table(4);
    for (std::size_t k = 0; k < VerdictTable::kWays; ++k) {
      table.put(kOneSetKeys[k], k == way ? ones : CompactVerdict{});
    }
    const legal::FactKey key = kOneSetKeys[way];
    EXPECT_TRUE(holds(table, key, ones)) << way;
    for (const std::uint64_t near :
         {key.bits ^ 1, key.bits | 0xFF, (key.bits << 8) | 0xFF}) {
      if (near == key.bits) continue;
      EXPECT_FALSE(table.get(legal::FactKey{near}).has_value())
          << way << " " << std::hex << near;
    }
  }
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
