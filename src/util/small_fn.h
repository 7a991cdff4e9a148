// SmallFn: a move-only void() callable with small-buffer storage.
//
// The event queue's payload type.  std::function was the wrong tool
// there twice over: it must be copyable (so every captured state has to
// be copyable, and a careless copy deep-copies captured packet
// payloads — the exact bug ISSUE 8 fixes), and its type-erased state
// commonly lands on the heap.  SmallFn stores callables up to
// kInlineBytes directly inside the object (simulator callbacks capture
// only index handles and PODs, so they always fit), falls back to one
// heap cell for larger captures, and is move-only — a SmallFn can hold
// move-only state, and nothing can accidentally duplicate it.
//
// Dispatch is two function pointers (invoke + relocate/destroy)
// resolved at construction; no virtual tables, no RTTI.  For the
// dominant case — a trivially copyable callable stored inline — the
// relocate pointer is left null and moves degrade to a plain memcpy of
// the buffer, so a vector<Entry> regrowth in the calendar queue moves
// entries without one indirect call per element.

#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace lexfor::util {

class SmallFn {
 public:
  // Sized so a hop callback — object pointer plus a handful of 32/64-bit
  // handles — fits inline with room to spare, while an Entry in the
  // calendar queue stays one cache line.
  static constexpr std::size_t kInlineBytes = 48;

  SmallFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): callable adaptor
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_trivially_copyable_v<Fn>) {
      // Trivially relocatable: moves are a memcpy, destruction a no-op;
      // relocate_ stays null as the marker.
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
    } else if constexpr (sizeof(Fn) <= kInlineBytes &&
                         alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      relocate_ = [](void* src, void* dst) noexcept {
        Fn* fn = static_cast<Fn*>(src);
        if (dst != nullptr) ::new (dst) Fn(std::move(*fn));
        fn->~Fn();
      };
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      relocate_ = [](void* src, void* dst) noexcept {
        Fn** pp = static_cast<Fn**>(src);
        if (dst != nullptr) {
          *static_cast<Fn**>(dst) = *pp;
        } else {
          delete *pp;
        }
      };
    }
  }

  SmallFn(SmallFn&& other) noexcept { move_from(std::move(other)); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      destroy();
      move_from(std::move(other));
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { destroy(); }

  void operator()() { invoke_(buf_); }

  [[nodiscard]] explicit operator bool() const noexcept {
    return invoke_ != nullptr;
  }

 private:
  void move_from(SmallFn&& other) noexcept {
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    if (relocate_ != nullptr) {
      relocate_(other.buf_, buf_);
    } else if (invoke_ != nullptr) {
      // Trivially relocatable: blit the whole buffer.  The tail beyond
      // sizeof(Fn) is indeterminate and copying it is deliberate (the
      // exact size was erased at construction); std::byte makes that
      // well-defined, so quiet GCC's -Wuninitialized and (under
      // sanitizer instrumentation) -Wmaybe-uninitialized here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
      std::memcpy(buf_, other.buf_, kInlineBytes);
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
    }
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
  }

  void destroy() noexcept {
    if (relocate_ != nullptr) relocate_(buf_, nullptr);
    invoke_ = nullptr;
    relocate_ = nullptr;
  }

  void (*invoke_)(void*) = nullptr;
  // relocate(src, dst): move-construct src's callable into dst and
  // destroy src; with dst == nullptr, just destroy src.  Null for an
  // empty SmallFn and for trivially relocatable callables alike
  // (engaged iff invoke_ != nullptr): those move by memcpy and need no
  // cleanup.
  void (*relocate_)(void* src, void* dst) noexcept = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineBytes];
};

}  // namespace lexfor::util
