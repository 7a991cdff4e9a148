// The tracer: runtime-filtered event source with RAII spans.
//
// One process-wide tracer (obs::tracer()) accepts events whose level
// passes the runtime filter, stamps them with the dual clocks and the
// emitting thread's ordinal, and keeps the last N per emitting thread
// in a ShardedEventRing.  The ring is the only way events leave the
// tracer: consumers take ring().snapshot() or ring().drain() and render
// them (obs/export.h).  The filter check is a single relaxed atomic
// load, so instrumentation left in release builds costs one predictable
// branch while tracing is off; the LEXFOR_OBS=0 compile toggle
// (obs/obs.h) removes even that.
//
// kError events additionally wake the flight recorder (obs/flight.h)
// after they land in the ring, and the dump reads the ring of the
// tracer that accepted the error, so it contains the error event
// itself, on the process-wide tracer or a private one.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "obs/event.h"
#include "obs/sharded_ring.h"
#include "util/sim_time.h"

namespace lexfor::obs {

class Tracer;

// RAII span: emits kBegin at construction, kEnd (with duration_ns in
// `value`) at destruction.  Inactive spans (filtered out, or default
// constructed) cost nothing on destruction.
class Span {
 public:
  Span() noexcept = default;
  Span(Span&& other) noexcept
      : tracer_(std::exchange(other.tracer_, nullptr)),
        id_(other.id_),
        begin_ns_(other.begin_ns_),
        level_(other.level_),
        sim_us_(other.sim_us_),
        category_(other.category_),
        name_(std::move(other.name_)) {}
  Span& operator=(Span&&) = delete;
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

  [[nodiscard]] bool active() const noexcept { return tracer_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::uint64_t id, std::uint64_t begin_ns, Level level,
       std::int64_t sim_us, std::string_view category, std::string name)
      : tracer_(tracer),
        id_(id),
        begin_ns_(begin_ns),
        level_(level),
        sim_us_(sim_us),
        category_(category),
        name_(std::move(name)) {}

  Tracer* tracer_ = nullptr;
  std::uint64_t id_ = 0;
  std::uint64_t begin_ns_ = 0;
  Level level_ = Level::kInfo;
  std::int64_t sim_us_ = kNoSimTime;
  std::string_view category_;
  std::string name_;
};

class Tracer {
 public:
  explicit Tracer(std::size_t ring_capacity = 4096)
      : ring_(ring_capacity),
        start_(std::chrono::steady_clock::now()) {}

  // --- runtime filter ---------------------------------------------------
  // Default kOff: instrumentation is compiled in but dormant until a
  // caller (example, bench, operator hook) turns it on.
  void set_level(Level level) noexcept {
    level_.store(static_cast<std::uint8_t>(level), std::memory_order_relaxed);
  }
  [[nodiscard]] Level level() const noexcept {
    return static_cast<Level>(level_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] bool enabled(Level at) const noexcept {
    return level_.load(std::memory_order_relaxed) >=
           static_cast<std::uint8_t>(at);
  }

  // --- emission ---------------------------------------------------------
  void instant(Level level, std::string_view category, std::string name,
               std::string args = {}, SimTime sim = SimTime{kNoSimTime});
  [[nodiscard]] Span span(Level level, std::string_view category,
                          std::string name, std::string args = {},
                          SimTime sim = SimTime{kNoSimTime});

  // Every accepted event, per emitting thread; its counts() are the
  // tracer's emission accounting.
  [[nodiscard]] ShardedEventRing& ring() noexcept { return ring_; }

  // Nanoseconds of wall clock since this tracer was constructed.
  [[nodiscard]] std::uint64_t wall_now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start_)
            .count());
  }

 private:
  friend class Span;

  void emit(TraceEvent ev);

  std::atomic<std::uint8_t> level_{static_cast<std::uint8_t>(Level::kOff)};
  std::atomic<std::uint64_t> next_span_id_{1};
  ShardedEventRing ring_;
  std::chrono::steady_clock::time_point start_;
};

// The process-wide tracer used by the LEXFOR_OBS_* macros.  Never
// destroyed (intentionally leaked) so events emitted during static
// destruction stay safe.
[[nodiscard]] Tracer& tracer();

// Small per-thread ordinal for TraceEvent::tid (0 for the first thread).
[[nodiscard]] std::uint32_t this_thread_ordinal();

}  // namespace lexfor::obs
