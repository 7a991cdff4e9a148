// Epoch arena and freelist pool: the allocation substrate for the
// data-oriented netsim core.
//
// Two allocators with deliberately different lifetime models:
//
//  - Arena: a chunked bump allocator for objects that all die together.
//    allocate() is a pointer bump; there is no per-object free.  reset()
//    ends the epoch: every allocation is dropped at once and the chunks
//    are retained for the next epoch, so a steady-state
//    build/reset/build cycle performs no heap traffic.  The route cache
//    uses one arena per topology version: BFS next-hop tables live
//    exactly as long as the topology they describe.
//
//  - Pool<T>: a slot pool handing out dense 32-bit index handles backed
//    by a freelist.  Handles survive vector growth (indices, not
//    pointers), slots are recycled in LIFO order so hot slots stay hot,
//    and T's capacity (e.g. a Bytes buffer) is retained across
//    acquire/release cycles.  Everything in-flight in the simulator —
//    packets, shared route paths — is referred to by pool handles, not
//    heap nodes.
//
// Neither allocator is thread-safe: simulations are single-threaded and
// deterministic by design (see util/ids.h).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace lexfor::util {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes) noexcept
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  Arena(Arena&&) = default;
  Arena& operator=(Arena&&) = default;

  // Returns `bytes` of storage aligned to `align` (a power of two).
  // Never returns nullptr; allocations larger than the chunk size get a
  // dedicated chunk.  The returned ADDRESS is aligned, not merely the
  // offset into the chunk: alignments above what operator new[] grants
  // (typically 16), such as a 64-byte cache line, are honoured.
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t align) {
    if (bytes == 0) bytes = 1;
    if (chunk_ < chunks_.size()) {
      const auto base =
          reinterpret_cast<std::uintptr_t>(chunks_[chunk_].data.get());
      const std::size_t aligned =
          ((base + used_ + (align - 1)) & ~(align - 1)) - base;
      if (aligned + bytes <= chunks_[chunk_].size) {
        used_ = aligned + bytes;
        total_allocated_ += bytes;
        return chunks_[chunk_].data.get() + aligned;
      }
    }
    return allocate_slow(bytes, align);
  }

  // Typed array allocation.  Value-initializes nothing: callers fill the
  // array themselves.  T must be trivially destructible — the arena
  // never runs destructors.
  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return static_cast<T*>(allocate(n * sizeof(T), alignof(T)));
  }

  // Ends the epoch: all allocations are invalidated at once.  Chunks are
  // retained, so the next epoch allocates from warm memory.
  void reset() noexcept {
    chunk_ = 0;
    used_ = 0;
    total_allocated_ = 0;
  }

  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size();
  }
  [[nodiscard]] std::size_t bytes_allocated() const noexcept {
    return total_allocated_;
  }
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  [[nodiscard]] void* allocate_slow(std::size_t bytes, std::size_t align) {
    // Advance to the next retained chunk that fits, or mint a new one.
    while (++chunk_ < chunks_.size()) {
      used_ = 0;
      if (bytes + align <= chunks_[chunk_].size) break;
    }
    if (chunk_ >= chunks_.size()) {
      const std::size_t size = bytes + align > chunk_bytes_ ? bytes + align
                                                            : chunk_bytes_;
      chunks_.push_back(Chunk{std::make_unique<std::byte[]>(size), size});
      chunk_ = chunks_.size() - 1;
      used_ = 0;
    }
    const auto base = reinterpret_cast<std::uintptr_t>(chunks_[chunk_].data.get());
    const std::size_t aligned =
        ((base + used_ + (align - 1)) & ~(align - 1)) - base;
    used_ = aligned + bytes;
    total_allocated_ += bytes;
    return chunks_[chunk_].data.get() + aligned;
  }

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t chunk_ = 0;  // index of the chunk being bumped
  std::size_t used_ = 0;   // bytes consumed in the current chunk
  std::size_t total_allocated_ = 0;
};

// A freelist slot pool with 32-bit index handles.  Slots are default-
// constructed once and recycled; a released slot keeps its T (and thus
// any capacity T owns) until reacquired.
//
// Alignment guarantee: every slot sits on an alignof(T) boundary, for
// any T including over-aligned ones (alignas(64) SoA rows, SIMD
// scratch) — std::vector<T> allocates through the aligned operator new
// since C++17, and slots are contiguous multiples of sizeof(T) from
// that base.  Pinned by ArenaTest/PoolTest alignment tests.
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
