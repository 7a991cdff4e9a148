// JSON renderings of trace events: one JSONL line per event, and the
// Chrome trace_event document.
//
// Events leave the tracer only through its sharded ring
// (obs/sharded_ring.h); these functions render what a caller takes
// from it.  write_chrome_trace turns a ring().snapshot() or
// ring().drain() into the trace_event JSON array format that
// chrome://tracing and Perfetto load directly, so an investigation run
// becomes a browsable timeline where custody, authority and acquisition
// events interleave — the court-facing audit view.  The flight recorder
// writes each event as an append_event_jsonl line.

#pragma once

#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "obs/event.h"

namespace lexfor::obs {

// Which clock drives the Chrome "ts" field.  kWall is always monotonic.
// kSim puts DES runs on the simulation timeline: events that carry sim
// time use it, events that do not inherit the latest sim timestamp
// seen before them (so engine work nests under the sim moment that
// triggered it).
enum class TimeBase { kWall, kSim };

// Writes `events`, in the order given, as one complete Chrome
// trace_event "JSON array format" document: a process_name metadata
// record, then one object per event, then "]\n".  No events gives
// "[]\n".
void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events,
                        TimeBase base = TimeBase::kWall);

// Appends `text` to `out` with JSON string escaping applied.
void append_json_escaped(std::string& out, std::string_view text);

// Appends one event as a complete JSON object (no trailing newline):
// raw dual clocks + seq + level + the nested Chrome-style event body.
void append_event_jsonl(std::string& out, const TraceEvent& ev);

// Expands an obs args payload ("k=v,k=v") into a JSON object body
// (without the surrounding braces).  Malformed pairs become "note" keys.
[[nodiscard]] std::string args_to_json(std::string_view args);

}  // namespace lexfor::obs
