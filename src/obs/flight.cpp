#include "obs/flight.h"

#include <cstdlib>
#include <fstream>
#include <utility>
#include <vector>

#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"

namespace lexfor::obs {

void FlightRecorder::configure(FlightRecorderConfig cfg) {
  const std::scoped_lock lock(mu_);
  cfg_ = std::move(cfg);
  if (cfg_.last_events == 0) cfg_.last_events = 1;
  armed_.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disarm() {
  armed_.store(false, std::memory_order_relaxed);
}

std::string FlightRecorder::path() const {
  const std::scoped_lock lock(mu_);
  return cfg_.path;
}

bool FlightRecorder::dump(std::string_view reason) {
  return dump(reason, tracer());
}

bool FlightRecorder::dump(std::string_view reason, Tracer& source) {
  if (!armed()) return false;
  bool ok = false;
  {
    const std::scoped_lock lock(mu_);
    // Non-consuming snapshot of the merged, time-ordered recent past;
    // keep only the newest last_events.
    std::vector<TraceEvent> events = source.ring().snapshot();
    if (events.size() > cfg_.last_events) {
      events.erase(events.begin(),
                   events.end() - static_cast<std::ptrdiff_t>(
                                      cfg_.last_events));
    }
    std::ofstream os(cfg_.path, std::ios::app);
    if (os) {
      std::string line;
      line.reserve(256);
      line += "{\"type\":\"flight\",\"reason\":\"";
      append_json_escaped(line, reason);
      line += "\",\"wall_ns\":";
      line += std::to_string(source.wall_now_ns());
      line += ",\"events\":";
      line += std::to_string(events.size());
      line += "}\n";
      for (const TraceEvent& ev : events) {
        std::string body;
        body.reserve(192);
        append_event_jsonl(body, ev);
        line += "{\"type\":\"event\",";
        line.append(body, 1, std::string::npos);  // strip the leading '{'
        line += '\n';
      }
      line += "{\"type\":\"metrics\",\"snapshot\":";
      Snapshot::capture().append_json(line);
      line += "}\n";
      os << line;
      ok = static_cast<bool>(os);
    }
  }
  if (ok) {
    dumps_.fetch_add(1, std::memory_order_relaxed);
    metrics().counter("obs.flight.dumps").add(1);
  }
  return ok;
}

FlightRecorder& flight_recorder() {
  // Leaked on purpose; see obs::tracer().  Env auto-arm happens once,
  // at first use, so headless runs can capture crashes with zero code.
  static FlightRecorder* const instance = [] {
    auto* recorder = new FlightRecorder();
    if (const char* path = std::getenv("LEXFOR_FLIGHT_PATH");
        path != nullptr && *path != '\0') {
      FlightRecorderConfig cfg;
      cfg.path = path;
      recorder->configure(std::move(cfg));
    }
    return recorder;
  }();
  return *instance;
}

bool dump_flight_record(std::string_view reason) {
  return flight_recorder().dump(reason);
}

}  // namespace lexfor::obs
