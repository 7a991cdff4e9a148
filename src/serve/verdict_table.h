// serve::VerdictTable — the verdict server's compact verdict table: a
// set-associative array of 64-bit words keyed by legal::FactKey.
//
// Each word holds one whole entry,
//
//   bits 8..63  the fact key (legal::kFactKeyBits of them)
//   bits 1..7   the verdict: needs_process, required_process (3 bits),
//               required_proof (3 bits)
//   bit  0      valid
//
// and a key's set, kWays words, comes from the high bits of
// legal::FactKeyHash.  A lookup is one acquire load of the current
// array and relaxed loads of the set's words, each compared with the
// full key: it takes no lock and writes nothing shared, so lookups from
// every worker run side by side.  Because a word carries its key, a
// reader that races an insert sees either the old word or the new one,
// never another key's verdict.
//
// Inserts take one mutex.  An insert whose set is full doubles the
// array, up to the capacity, and otherwise replaces one of the set's
// ways (round robin), so past the capacity an insert evicts within its
// set.  Doubling splits each set in two, so it never drops an entry;
// the new array is published through the atomic pointer and the old
// ones are kept until the table is destroyed, so a reader still on one
// reads stale entries, not freed memory.  The table starts at
// kInitialSets sets, so resident memory follows the entries held, not
// the capacity.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "legal/fact_key.h"

namespace lexfor::serve {

// The verdict of a scenario, compacted to what the wire answers with.
struct CompactVerdict {
  std::uint8_t needs_process = 0;
  std::uint8_t required_process = 0;
  std::uint8_t required_proof = 0;
};

class VerdictTable {
 public:
  static constexpr std::size_t kWays = 4;
  static constexpr std::size_t kInitialSets = 16;

  // `capacity` is the entry budget, rounded up to a power-of-two number
  // of sets; 0 acts as 1.
  explicit VerdictTable(std::size_t capacity);

  VerdictTable(const VerdictTable&) = delete;
  VerdictTable& operator=(const VerdictTable&) = delete;

  // The key's verdict, or nullopt.  Lock-free; safe alongside put().
  [[nodiscard]] std::optional<CompactVerdict> get(
      legal::FactKey key) const noexcept {
    const Array& a = *current_.load(std::memory_order_acquire);
    for (const auto& way : a.sets[a.set_of(key)].ways) {
      const std::uint64_t w = way.load(std::memory_order_relaxed);
      if ((w & kValid) != 0 && (w >> kKeyShift) == key.bits) {
        return unpack(w);
      }
    }
    return std::nullopt;
  }

  // Inserts the key's verdict, or overwrites it if present.
  void put(legal::FactKey key, CompactVerdict verdict);

  // Entries the table can hold at its largest.
  [[nodiscard]] std::size_t capacity() const noexcept {
    return max_sets_ * kWays;
  }
  // Entries held now, and words allocated now (both take the mutex).
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t allocated() const;

 private:
  static constexpr std::uint64_t kValid = 1;
  static constexpr unsigned kKeyShift = 8;
  static_assert(legal::kFactKeyBits <= 64 - kKeyShift,
                "the fact key no longer fits a verdict-table word");

  struct alignas(kWays * sizeof(std::uint64_t)) Set {
    std::atomic<std::uint64_t> ways[kWays];
  };

  // One power-of-two array of sets; the current one is current_.
  struct Array {
    explicit Array(std::size_t set_count);
    // The top log2(count) bits of the key's hash; (h >> 1) >> shift
    // keeps a one-set array's shift in range.
    [[nodiscard]] std::size_t set_of(legal::FactKey key) const noexcept {
      const auto h = static_cast<std::uint64_t>(legal::FactKeyHash{}(key));
      return static_cast<std::size_t>((h >> 1) >> shift);
    }
    std::size_t count;
    unsigned shift;
    std::unique_ptr<Set[]> sets;
  };

  [[nodiscard]] static std::uint64_t pack(legal::FactKey key,
                                          CompactVerdict v) noexcept {
    return key.bits << kKeyShift |
           static_cast<std::uint64_t>(v.needs_process & 1u) << 1 |
           static_cast<std::uint64_t>(v.required_process & 7u) << 2 |
           static_cast<std::uint64_t>(v.required_proof & 7u) << 5 | kValid;
  }
  [[nodiscard]] static CompactVerdict unpack(std::uint64_t w) noexcept {
    return CompactVerdict{static_cast<std::uint8_t>((w >> 1) & 1u),
                          static_cast<std::uint8_t>((w >> 2) & 7u),
                          static_cast<std::uint8_t>((w >> 5) & 7u)};
  }

  // Doubles the current array; called under mu_.
  void grow();

  const std::size_t max_sets_;
  std::atomic<const Array*> current_{nullptr};
  mutable std::mutex mu_;  // guards arrays_ and every store to a word
  std::vector<std::unique_ptr<Array>> arrays_;  // current_ is the last
  std::size_t next_victim_ = 0;
};

}  // namespace lexfor::serve
