#include "obs/export.h"

#include <cstdio>

namespace lexfor::obs {

void append_json_escaped(std::string& out, std::string_view text) {
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string args_to_json(std::string_view args) {
  std::string out;
  std::size_t pos = 0;
  bool first = true;
  while (pos < args.size()) {
    std::size_t comma = args.find(',', pos);
    if (comma == std::string_view::npos) comma = args.size();
    const std::string_view pair = args.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;
    if (!first) out += ',';
    first = false;
    const std::size_t eq = pair.find('=');
    out += '"';
    if (eq == std::string_view::npos) {
      out += "note\":\"";
      append_json_escaped(out, pair);
    } else {
      append_json_escaped(out, pair.substr(0, eq));
      out += "\":\"";
      append_json_escaped(out, pair.substr(eq + 1));
    }
    out += '"';
  }
  return out;
}

namespace {

// The Chrome-style event object shared by both renderings.
void append_event_object(std::string& out, const TraceEvent& ev,
                         double ts_us) {
  char buf[64];
  out += "{\"name\":\"";
  append_json_escaped(out, ev.name);
  out += "\",\"cat\":\"";
  append_json_escaped(out, ev.category);
  out += "\",\"ph\":\"";
  out += static_cast<char>(ev.phase);
  out += "\",\"ts\":";
  std::snprintf(buf, sizeof buf, "%.3f", ts_us);
  out += buf;
  out += ",\"pid\":1,\"tid\":";
  out += std::to_string(ev.tid + 1);
  if (ev.span_id != 0) {
    out += ",\"id\":\"0x";
    std::snprintf(buf, sizeof buf, "%llx",
                  static_cast<unsigned long long>(ev.span_id));
    out += buf;
    out += '"';
  }
  out += ",\"args\":{";
  if (ev.has_sim_time()) {
    out += "\"sim_us\":";
    out += std::to_string(ev.sim_us);
  }
  const std::string extra = args_to_json(ev.args);
  if (!extra.empty()) {
    if (ev.has_sim_time()) out += ',';
    out += extra;
  }
  out += "}}";
}

}  // namespace

void append_event_jsonl(std::string& out, const TraceEvent& ev) {
  // JSONL keeps the raw dual clocks rather than a rendered ts.
  out += "{\"wall_ns\":";
  out += std::to_string(ev.wall_ns);
  if (ev.has_sim_time()) {
    out += ",\"sim_us\":";
    out += std::to_string(ev.sim_us);
  }
  if (ev.seq != 0) {
    out += ",\"seq\":";
    out += std::to_string(ev.seq);
  }
  out += ",\"level\":\"";
  out += to_string(ev.level);
  out += "\",\"event\":";
  append_event_object(out, ev, static_cast<double>(ev.wall_ns) / 1e3);
  out += '}';
}

void write_chrome_trace(std::ostream& os, std::span<const TraceEvent> events,
                        TimeBase base) {
  if (events.empty()) {
    os << "[]\n";
    return;
  }
  std::string out;
  out.reserve(160 * (events.size() + 1));
  // Array opener plus a metadata record naming the process.
  out += "[{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"lexforensica\"}}";
  std::int64_t last_sim_us = 0;
  for (const TraceEvent& ev : events) {
    double ts_us = static_cast<double>(ev.wall_ns) / 1e3;
    if (base == TimeBase::kSim) {
      if (ev.has_sim_time() && ev.sim_us > last_sim_us) last_sim_us = ev.sim_us;
      ts_us = static_cast<double>(ev.has_sim_time() ? ev.sim_us : last_sim_us);
    }
    out += ",\n";
    append_event_object(out, ev, ts_us);
  }
  out += "]\n";
  os << out;
}

}  // namespace lexfor::obs
