// Flight recorder: post-mortem dump of the last N events + metrics.
//
// The tracer's ring already keeps the recent past per thread; the
// flight recorder turns that into a file the moment something goes
// wrong.  Once armed (configure(), or the LEXFOR_FLIGHT_PATH
// environment variable at first use), a dump is triggered by every
// kError-level trace event a tracer accepts (hooked in Tracer::emit,
// after the event lands in that tracer's ring), by
// check::DifferentialChecker violations, or explicitly via
// obs::dump_flight_record().  A dump reads one tracer's ring without
// draining it (ring().snapshot()): the tracer whose error triggered it,
// private or process-wide, so the dump contains that error; explicit
// dumps read the process-wide tracer.
//
// Dump format is JSONL, appended per dump so repeated incidents stack
// in one file:
//   {"type":"flight","reason":"...","wall_ns":...,"events":N}
//   {"type":"event", <append_event_jsonl body>}  x N, time-ordered
//   {"type":"metrics","snapshot":{...}}          obs::Snapshot JSON
// Every line is one JSON object, so the file greps and jq's line by
// line.

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

namespace lexfor::obs {

class Tracer;

struct FlightRecorderConfig {
  std::string path = "lexfor_flight.jsonl";
  // Newest events kept per dump (merged across all ring shards).
  std::size_t last_events = 256;
};

class FlightRecorder {
 public:
  FlightRecorder() = default;
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // Arms the recorder; replaces any previous configuration.
  void configure(FlightRecorderConfig cfg);
  void disarm();
  [[nodiscard]] bool armed() const noexcept {
    return armed_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string path() const;

  // Dumps written since process start (successful ones only).
  [[nodiscard]] std::uint64_t dumps() const noexcept {
    return dumps_.load(std::memory_order_relaxed);
  }

  // Writes one dump of `source`'s recent events (the process-wide
  // tracer's, by default); returns false when disarmed or the file
  // cannot be opened.  Bumps the obs.flight.dumps counter on success.
  bool dump(std::string_view reason);
  bool dump(std::string_view reason, Tracer& source);

 private:
  mutable std::mutex mu_;
  FlightRecorderConfig cfg_;
  std::atomic<bool> armed_{false};
  std::atomic<std::uint64_t> dumps_{0};
};

// Process-wide recorder; leaked on purpose like obs::tracer().  On
// first use, arms itself from the LEXFOR_FLIGHT_PATH environment
// variable if set.
[[nodiscard]] FlightRecorder& flight_recorder();

// Convenience: flight_recorder().dump(reason).
bool dump_flight_record(std::string_view reason);

}  // namespace lexfor::obs
