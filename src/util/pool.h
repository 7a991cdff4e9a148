// Freelist slot pool: dense 32-bit index handles for objects that are
// recycled rather than freed.
//
// Handles survive vector growth (indices, not pointers), slots are
// recycled in LIFO order so hot slots stay hot, and T's capacity (e.g. a
// Bytes buffer) is retained across acquire/release cycles.  The route
// cache's shared paths are referred to by pool handles, not heap nodes.
//
// Not thread-safe: simulations are single-threaded and deterministic by
// design (see util/ids.h).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lexfor::util {

// A freelist slot pool with 32-bit index handles.  Slots are default-
// constructed once and recycled; a released slot keeps its T (and thus
// any capacity T owns) until reacquired.
//
// Alignment guarantee: every slot sits on an alignof(T) boundary, for
// any T including over-aligned ones (alignas(64) SoA rows, SIMD
// buffers) — std::vector<T> allocates through the aligned operator new
// since C++17, and slots are contiguous multiples of sizeof(T) from
// that base.  Pinned by PoolTest.SlotsHonourOverAlignedTypes.
template <typename T>
class Pool {
 public:
  using Handle = std::uint32_t;
  static constexpr Handle kNull = ~Handle{0};

  // Acquires a slot (recycled LIFO, or freshly grown) and returns its
  // handle.  The slot holds whatever the previous occupant left behind;
  // callers overwrite the fields they use.
  [[nodiscard]] Handle acquire() {
    if (!free_.empty()) {
      const Handle h = free_.back();
      free_.pop_back();
      ++live_;
      return h;
    }
    slots_.emplace_back();
    ++live_;
    return static_cast<Handle>(slots_.size() - 1);
  }

  void release(Handle h) noexcept {
    free_.push_back(h);
    --live_;
  }

  [[nodiscard]] T& operator[](Handle h) noexcept { return slots_[h]; }
  [[nodiscard]] const T& operator[](Handle h) const noexcept {
    return slots_[h];
  }

  [[nodiscard]] std::size_t live() const noexcept { return live_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  std::vector<T> slots_;
  std::vector<Handle> free_;
  std::size_t live_ = 0;
};

}  // namespace lexfor::util
