#include "obs/snapshot.h"

#include <cstdio>
#include <string_view>

#include "obs/export.h"  // append_json_escaped
#include "obs/tracer.h"

namespace lexfor::obs {
namespace {

// --- Prometheus naming -------------------------------------------------
// Instrument names use dotted lowercase ("legal.verdict.count") and may
// carry a literal label suffix ("serve.rejected{reason=\"overload\"}").
// The exposition name is the part before '{' with every character
// outside [A-Za-z0-9_:] mapped to '_'; the label braces pass through
// verbatim.

std::string prom_family(std::string_view raw) {
  const std::size_t brace = raw.find('{');
  const std::string_view name =
      brace == std::string_view::npos ? raw : raw.substr(0, brace);
  std::string out;
  out.reserve(name.size() + 1);
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

// Label body (without braces) carried in the instrument name, if any.
std::string_view prom_labels(std::string_view raw) {
  const std::size_t brace = raw.find('{');
  if (brace == std::string_view::npos) return {};
  std::string_view body = raw.substr(brace + 1);
  if (!body.empty() && body.back() == '}') body.remove_suffix(1);
  return body;
}

std::string prom_sample_name(std::string_view raw) {
  std::string out = prom_family(raw);
  const std::string_view labels = prom_labels(raw);
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  return out;
}

void emit_type_line(std::ostream& os, const std::string& family,
                    std::string_view kind, std::string& last_family) {
  if (family == last_family) return;
  last_family = family;
  os << "# TYPE " << family << ' ' << kind << '\n';
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  out += buf;
}

}  // namespace

Snapshot Snapshot::capture() {
  Tracer& t = tracer();
  Snapshot s = capture(metrics(), &profiler());
  s.wall_ns = t.wall_now_ns();
  const ShardedEventRing& ring = t.ring();
  const std::size_t shards = ring.shard_count();
  s.ring.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    const RingCounts c = ring.shard(i).counts();
    s.ring.push_back(
        RingShardStats{i, c.pushed, c.drained, c.dropped, c.size});
  }
  return s;
}

Snapshot Snapshot::capture(const MetricsRegistry& reg,
                           const ProfileRegistry* prof) {
  Snapshot s;
  s.counters = reg.counter_samples();
  s.gauges = reg.gauge_samples();
  s.histograms = reg.histogram_samples();
  if (prof != nullptr) s.profile = prof->samples();
  return s;
}

void Snapshot::to_prometheus(std::ostream& os) const {
  std::string last_family;
  for (const CounterSample& c : counters) {
    const std::string family = prom_family(c.name);
    emit_type_line(os, family, "counter", last_family);
    os << prom_sample_name(c.name) << ' ' << c.value << '\n';
  }
  for (const GaugeSample& g : gauges) {
    const std::string family = prom_family(g.name);
    emit_type_line(os, family, "gauge", last_family);
    os << prom_sample_name(g.name) << ' ' << g.value << '\n';
  }
  for (const HistogramSample& h : histograms) {
    const std::string family = prom_family(h.name);
    emit_type_line(os, family, "histogram", last_family);
    const std::string_view labels = prom_labels(h.name);
    const auto bucket_line = [&](std::string_view le, std::uint64_t cum) {
      os << family << "_bucket{";
      if (!labels.empty()) os << labels << ',';
      os << "le=\"" << le << "\"} " << cum << '\n';
    };
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      cumulative += i < h.buckets.size() ? h.buckets[i] : 0;
      bucket_line(std::to_string(h.bounds[i]), cumulative);
    }
    bucket_line("+Inf", h.count);
    os << family << "_sum";
    if (!labels.empty()) os << '{' << labels << '}';
    os << ' ' << h.sum << '\n';
    os << family << "_count";
    if (!labels.empty()) os << '{' << labels << '}';
    os << ' ' << h.count << '\n';
  }
  if (!ring.empty()) {
    os << "# TYPE obs_ring_dropped counter\n";
    for (const RingShardStats& r : ring) {
      os << "obs_ring_dropped{shard=\"" << r.shard << "\"} " << r.dropped
         << '\n';
    }
  }
  if (!profile.empty()) {
    os << "# TYPE lexfor_profile_hits counter\n";
    for (const ProfileSample& p : profile) {
      os << "lexfor_profile_hits{site=\"" << p.name << "\"} " << p.count
         << '\n';
    }
    os << "# TYPE lexfor_profile_ns_total counter\n";
    for (const ProfileSample& p : profile) {
      os << "lexfor_profile_ns_total{site=\"" << p.name << "\"} "
         << p.total_ns << '\n';
    }
    os << "# TYPE lexfor_profile_min_ns gauge\n";
    for (const ProfileSample& p : profile) {
      os << "lexfor_profile_min_ns{site=\"" << p.name << "\"} " << p.min_ns
         << '\n';
    }
    os << "# TYPE lexfor_profile_max_ns gauge\n";
    for (const ProfileSample& p : profile) {
      os << "lexfor_profile_max_ns{site=\"" << p.name << "\"} " << p.max_ns
         << '\n';
    }
  }
}

void Snapshot::append_json(std::string& out) const {
  out += "{\"wall_ns\":";
  out += std::to_string(wall_ns);
  out += ",\"counters\":{";
  bool first = true;
  for (const CounterSample& c : counters) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, c.name);
    out += "\":";
    out += std::to_string(c.value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const GaugeSample& g : gauges) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, g.name);
    out += "\":";
    out += std::to_string(g.value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const HistogramSample& h : histograms) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, h.name);
    out += "\":{\"count\":";
    out += std::to_string(h.count);
    out += ",\"sum\":";
    out += std::to_string(h.sum);
    if (h.count > 0) {
      out += ",\"min\":";
      out += std::to_string(h.min);
      out += ",\"max\":";
      out += std::to_string(h.max);
      out += ",\"mean\":";
      append_double(out, h.mean());
      out += ",\"p50\":";
      append_double(out, h.percentile(50));
      out += ",\"p95\":";
      append_double(out, h.percentile(95));
      out += ",\"p99\":";
      append_double(out, h.percentile(99));
    }
    out += '}';
  }
  out += "},\"profile\":{";
  first = true;
  for (const ProfileSample& p : profile) {
    if (!first) out += ',';
    first = false;
    out += '"';
    append_json_escaped(out, p.name);
    out += "\":{\"count\":";
    out += std::to_string(p.count);
    out += ",\"total_ns\":";
    out += std::to_string(p.total_ns);
    out += ",\"min_ns\":";
    out += std::to_string(p.min_ns);
    out += ",\"max_ns\":";
    out += std::to_string(p.max_ns);
    out += ",\"mean_ns\":";
    append_double(out, p.mean_ns());
    out += '}';
  }
  out += "},\"ring\":[";
  first = true;
  for (const RingShardStats& r : ring) {
    if (!first) out += ',';
    first = false;
    out += "{\"shard\":";
    out += std::to_string(r.shard);
    out += ",\"pushed\":";
    out += std::to_string(r.pushed);
    out += ",\"drained\":";
    out += std::to_string(r.drained);
    out += ",\"dropped\":";
    out += std::to_string(r.dropped);
    out += ",\"size\":";
    out += std::to_string(r.size);
    out += '}';
  }
  out += "]}";
}

void Snapshot::to_json(std::ostream& os) const {
  std::string out;
  out.reserve(512);
  append_json(out);
  os << out << '\n';
}

}  // namespace lexfor::obs
