// Structured trace events: the unit of observability.
//
// Every observable moment in LexForensica — a verdict derivation, a
// custody transfer, a packet retained or refused by a capture device —
// becomes one TraceEvent.  Events carry BOTH clocks: wall time (steady,
// nanoseconds since tracer start) for profiling, and simulation time
// (util/sim_time.h) when the emitter runs inside a DES, so a trace of a
// simulated investigation reads in the same timeline a court would ask
// about.  The stream of events doubles as an audit record: category
// "evidence"/"court"/"legal" events at Level::kAudit reconstruct what
// was collected, under which authority, and when (§III of the paper).

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "util/sim_time.h"

namespace lexfor::obs {

// Runtime severity/verbosity filter.  kOff disables all tracing; kError
// keeps only failures (and arms the flight recorder's error trigger,
// obs/flight.h); kAudit adds the legally-meaningful record (rulings,
// acquisitions, custody, verdicts); kInfo adds spans around
// unit-of-work operations; kDebug adds per-packet / per-sim-event
// detail.
enum class Level : std::uint8_t {
  kOff = 0,
  kError = 1,
  kAudit = 2,
  kInfo = 3,
  kDebug = 4,
};

[[nodiscard]] constexpr std::string_view to_string(Level l) noexcept {
  switch (l) {
    case Level::kOff: return "off";
    case Level::kError: return "error";
    case Level::kAudit: return "audit";
    case Level::kInfo: return "info";
    case Level::kDebug: return "debug";
  }
  return "?";
}

// Phases mirror the Chrome trace_event vocabulary so conversion is 1:1.
enum class Phase : char {
  kBegin = 'B',    // span opened
  kEnd = 'E',      // span closed
  kInstant = 'i',  // point event
};

// Sentinel for "the emitter was not running under a simulation clock".
inline constexpr std::int64_t kNoSimTime = INT64_MIN;

struct TraceEvent {
  std::uint64_t wall_ns = 0;          // steady clock, ns since tracer start
  std::int64_t sim_us = kNoSimTime;   // SimTime::us, or kNoSimTime
  // Global emission sequence (1-based), stamped by the sharded ring the
  // event lands in.  Unique per ring, monotone in claim order, so
  // (wall_ns, seq) is a total order over a merged multi-shard stream.
  std::uint64_t seq = 0;
  std::uint64_t span_id = 0;          // nonzero for kBegin/kEnd pairs
  std::uint32_t tid = 0;              // small per-thread ordinal
  Level level = Level::kInfo;
  Phase phase = Phase::kInstant;
  // Category must point at static-storage text (a string literal): it is
  // kept as a view so hot-path events never allocate for it.
  std::string_view category;
  std::string name;  // short names stay in the SSO buffer
  // Optional "key=value,key=value" payload; the renderers in
  // obs/export.h expand it to JSON.
  // Keys and values must not contain ',' or '='.
  std::string args;
  std::int64_t value = 0;  // duration_ns on kEnd

  [[nodiscard]] bool has_sim_time() const noexcept {
    return sim_us != kNoSimTime;
  }
};

}  // namespace lexfor::obs
