// Point-in-time metrics snapshots and their exposition.
//
// A Snapshot copies every counter, gauge, histogram, profiler site and
// ring-shard stat into plain structs, detached from the live registry:
// safe to hold and serialize while the instruments keep moving.  Two
// writers cover the export paths: Prometheus text exposition
// (`to_prometheus`) for scrape-style consumption, and a single-line
// JSON object (`to_json` / `append_json`) that
// tools/run_benchmarks.sh embeds into BENCH_<date>.json and the flight
// recorder embeds into its dump.

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/profile.h"

namespace lexfor::obs {

// Per-shard ring accounting at capture time, read under the shard's
// lock (EventRing::counts), so the exhaustive invariant
// pushed == drained + dropped + size holds for each entry.
struct RingShardStats {
  std::size_t shard = 0;
  std::uint64_t pushed = 0;
  std::uint64_t drained = 0;
  std::uint64_t dropped = 0;
  std::uint64_t size = 0;
};

struct Snapshot {
  // Tracer wall clock at capture (0 for registry-only captures).
  std::uint64_t wall_ns = 0;
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
  std::vector<ProfileSample> profile;
  std::vector<RingShardStats> ring;

  // Captures the process-wide instruments: metrics() + profiler() +
  // tracer() ring stats.
  [[nodiscard]] static Snapshot capture();

  // Captures an explicit registry (and optionally a profiler); no
  // tracer/ring involvement.  Used by tests and embedded registries.
  [[nodiscard]] static Snapshot capture(const MetricsRegistry& reg,
                                        const ProfileRegistry* prof = nullptr);

  // Prometheus text exposition: `# TYPE` per family, names sanitized
  // (`.` -> `_`), label braces in instrument names passed through, and
  // histograms expanded to cumulative `_bucket{le=...}` series plus
  // `_sum` / `_count`.  Each ring shard's drops export as
  // obs_ring_dropped{shard="k"} and profiler sites as
  // lexfor_profile_*{site="..."} families.
  void to_prometheus(std::ostream& os) const;

  // Single JSON object (no trailing newline) appended to `out`.
  void append_json(std::string& out) const;
  // Same object as one line on `os`.
  void to_json(std::ostream& os) const;
};

}  // namespace lexfor::obs
