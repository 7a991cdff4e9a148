#include "serve/verdict_table.h"

#include <algorithm>
#include <bit>

namespace lexfor::serve {

VerdictTable::Array::Array(std::size_t set_count)
    : count(set_count),
      shift(63u - static_cast<unsigned>(std::countr_zero(set_count))),
      sets(new Set[set_count]()) {}

VerdictTable::VerdictTable(std::size_t capacity)
    : max_sets_(std::bit_ceil(
          (std::max<std::size_t>(capacity, 1) - 1) / kWays + 1)) {
  arrays_.push_back(
      std::make_unique<Array>(std::min(kInitialSets, max_sets_)));
  current_.store(arrays_.back().get(), std::memory_order_release);
}

void VerdictTable::put(legal::FactKey key, CompactVerdict verdict) {
  const std::uint64_t word = pack(key, verdict);
  const std::scoped_lock lock(mu_);
  for (;;) {
    Array& a = *arrays_.back();
    Set& set = a.sets[a.set_of(key)];
    std::atomic<std::uint64_t>* empty = nullptr;
    for (auto& way : set.ways) {
      const std::uint64_t w = way.load(std::memory_order_relaxed);
      if ((w & kValid) == 0) {
        if (empty == nullptr) empty = &way;
      } else if ((w >> kKeyShift) == key.bits) {
        way.store(word, std::memory_order_relaxed);
        return;
      }
    }
    if (empty != nullptr) {
      empty->store(word, std::memory_order_relaxed);
      return;
    }
    if (a.count == max_sets_) {
      set.ways[next_victim_++ % kWays].store(word, std::memory_order_relaxed);
      return;
    }
    grow();
  }
}

void VerdictTable::grow() {
  const Array& old = *arrays_.back();
  auto next = std::make_unique<Array>(old.count * 2);
  // Set i splits into sets 2i and 2i + 1, so each new set receives at
  // most kWays of the old entries and every one finds a free way.
  for (std::size_t s = 0; s < old.count; ++s) {
    for (const auto& way : old.sets[s].ways) {
      const std::uint64_t w = way.load(std::memory_order_relaxed);
      if ((w & kValid) == 0) continue;
      for (auto& to : next->sets[next->set_of({w >> kKeyShift})].ways) {
        if ((to.load(std::memory_order_relaxed) & kValid) == 0) {
          to.store(w, std::memory_order_relaxed);
          break;
        }
      }
    }
  }
  current_.store(next.get(), std::memory_order_release);
  arrays_.push_back(std::move(next));
}

std::size_t VerdictTable::size() const {
  const std::scoped_lock lock(mu_);
  const Array& a = *arrays_.back();
  std::size_t held = 0;
  for (std::size_t s = 0; s < a.count; ++s) {
    for (const auto& way : a.sets[s].ways) {
      if ((way.load(std::memory_order_relaxed) & kValid) != 0) ++held;
    }
  }
  return held;
}

std::size_t VerdictTable::allocated() const {
  const std::scoped_lock lock(mu_);
  return arrays_.back()->count * kWays;
}

}  // namespace lexfor::serve
