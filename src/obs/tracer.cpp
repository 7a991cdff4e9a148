#include "obs/tracer.h"

#include "obs/flight.h"

namespace lexfor::obs {

Span::~Span() {
  if (tracer_ == nullptr) return;
  const std::uint64_t end_ns = tracer_->wall_now_ns();
  TraceEvent ev;
  ev.wall_ns = end_ns;
  ev.sim_us = sim_us_;
  ev.span_id = id_;
  ev.level = level_;
  ev.phase = Phase::kEnd;
  ev.category = category_;
  ev.name = std::move(name_);
  ev.value = static_cast<std::int64_t>(end_ns - begin_ns_);
  tracer_->emit(std::move(ev));
}

void Tracer::instant(Level level, std::string_view category, std::string name,
                     std::string args, SimTime sim) {
  if (!enabled(level)) return;
  TraceEvent ev;
  ev.wall_ns = wall_now_ns();
  ev.sim_us = sim.us;
  ev.level = level;
  ev.phase = Phase::kInstant;
  ev.category = category;
  ev.name = std::move(name);
  ev.args = std::move(args);
  emit(std::move(ev));
}

Span Tracer::span(Level level, std::string_view category, std::string name,
                  std::string args, SimTime sim) {
  if (!enabled(level)) return Span{};
  const std::uint64_t id =
      next_span_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t begin_ns = wall_now_ns();
  TraceEvent ev;
  ev.wall_ns = begin_ns;
  ev.sim_us = sim.us;
  ev.span_id = id;
  ev.level = level;
  ev.phase = Phase::kBegin;
  ev.category = category;
  ev.name = name;
  ev.args = std::move(args);
  emit(std::move(ev));
  return Span{this, id, begin_ns, level, sim.us, category, std::move(name)};
}

void Tracer::emit(TraceEvent ev) {
  ev.tid = this_thread_ordinal();
  const Level level = ev.level;
  ring_.push(std::move(ev));
  // After the push, and from this tracer's ring, so a dump triggered
  // by this event includes it.
  if (level == Level::kError) {
    (void)flight_recorder().dump("error-event", *this);
  }
}

Tracer& tracer() {
  // Leaked on purpose: instrumentation in static destructors must not
  // race tracer teardown.  The function-local pointer keeps the object
  // reachable, so LeakSanitizer does not report it.
  static Tracer* const instance = new Tracer();
  return *instance;
}

std::uint32_t this_thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t ordinal =
      next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

}  // namespace lexfor::obs
