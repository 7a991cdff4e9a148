// Umbrella header + instrumentation macros.
//
// Instrumented code uses ONLY these macros, never the tracer/registry
// directly, so the LEXFOR_OBS compile-time toggle can erase every trace
// of observability from a build:
//
//   LEXFOR_OBS=1 (default)  macros expand to a runtime-level check (one
//                           relaxed atomic load) and, when tracing is
//                           on, an event emission; metric macros expand
//                           to one cached-reference atomic op (a
//                           histogram batch records into a local and
//                           publishes once, at the end of its scope).
//   LEXFOR_OBS=0            macros expand to nothing at all — argument
//                           expressions are not evaluated, no symbols
//                           are referenced.  (cmake -DLEXFOR_OBS=OFF)
//
// Event/span macros take an explicit SimTime where the emitter runs
// under a simulation clock and lexfor::obs::no_sim_time() elsewhere, so
// traces of DES runs carry both timelines (event.h).

#pragma once

#include "obs/event.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/ring.h"
#include "obs/sharded_ring.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"
#include "util/sim_time.h"

namespace lexfor::obs {

// SimTime sentinel for emitters outside any simulation.
[[nodiscard]] inline constexpr SimTime no_sim_time() noexcept {
  return SimTime{kNoSimTime};
}

}  // namespace lexfor::obs

#ifndef LEXFOR_OBS
#define LEXFOR_OBS 1
#endif

#define LEXFOR_OBS_CONCAT_IMPL(a, b) a##b
#define LEXFOR_OBS_CONCAT(a, b) LEXFOR_OBS_CONCAT_IMPL(a, b)

#if LEXFOR_OBS

// RAII span covering the rest of the enclosing scope.  `name` may be a
// runtime std::string; `args`/`name` are only evaluated when tracing is
// enabled at `level`.
#define LEXFOR_OBS_SPAN(level, category, name, args, sim)                     \
  const ::lexfor::obs::Span LEXFOR_OBS_CONCAT(lexfor_obs_span_, __LINE__) =   \
      ::lexfor::obs::tracer().enabled(level)                                  \
          ? ::lexfor::obs::tracer().span((level), (category), (name), (args), \
                                         (sim))                               \
          : ::lexfor::obs::Span{}

// Point event.
#define LEXFOR_OBS_EVENT(level, category, name, args, sim)                  \
  do {                                                                      \
    if (::lexfor::obs::tracer().enabled(level)) {                           \
      ::lexfor::obs::tracer().instant((level), (category), (name), (args),  \
                                      (sim));                               \
    }                                                                       \
  } while (false)

// Metrics: the instrument is resolved once per call site (thread-safe
// function-local static), then each hit is a single atomic op.
#define LEXFOR_OBS_COUNTER_ADD(name, delta)                                 \
  do {                                                                      \
    static ::lexfor::obs::Counter& lexfor_obs_counter =                     \
        ::lexfor::obs::metrics().counter(name);                             \
    lexfor_obs_counter.add(delta);                                          \
  } while (false)

#define LEXFOR_OBS_GAUGE_SET(name, value)                                   \
  do {                                                                      \
    static ::lexfor::obs::Gauge& lexfor_obs_gauge =                         \
        ::lexfor::obs::metrics().gauge(name);                               \
    lexfor_obs_gauge.set(value);                                            \
  } while (false)

#define LEXFOR_OBS_HISTOGRAM_RECORD(name, sample)                           \
  do {                                                                      \
    static ::lexfor::obs::Histogram& lexfor_obs_histogram =                 \
        ::lexfor::obs::metrics().histogram(name);                           \
    lexfor_obs_histogram.record(sample);                                    \
  } while (false)

// A histogram recorder for a hot loop (obs::Histogram::Batch): declares
// `var` at this scope, each LEXFOR_OBS_HISTOGRAM_BATCH_RECORD touches
// only that local, and the histogram is written once, when `var` goes
// out of scope.  The histogram ends as if each sample had gone
// through LEXFOR_OBS_HISTOGRAM_RECORD.
#define LEXFOR_OBS_HISTOGRAM_BATCH(var, name)                               \
  static ::lexfor::obs::Histogram& LEXFOR_OBS_CONCAT(var, _histogram) =     \
      ::lexfor::obs::metrics().histogram(name);                             \
  ::lexfor::obs::Histogram::Batch var(LEXFOR_OBS_CONCAT(var, _histogram))

#define LEXFOR_OBS_HISTOGRAM_BATCH_RECORD(var, sample) (var).record(sample)

// Call-site profiler scope: the site is resolved once per call site
// like the metric macros; each pass costs one relaxed load (and, when
// the profiler is enabled, two steady_clock reads folded into the
// site's count/total/min/max).  `name` must be a string literal or
// otherwise stable for the first hit.
#define LEXFOR_OBS_PROFILE(name)                                            \
  static ::lexfor::obs::ProfileSite& LEXFOR_OBS_CONCAT(                     \
      lexfor_obs_profile_site_, __LINE__) =                                 \
      ::lexfor::obs::profiler().site(name);                                 \
  const ::lexfor::obs::ProfileScope LEXFOR_OBS_CONCAT(                      \
      lexfor_obs_profile_scope_, __LINE__)(                                 \
      LEXFOR_OBS_CONCAT(lexfor_obs_profile_site_, __LINE__))

#else  // LEXFOR_OBS == 0: erase instrumentation entirely.

#define LEXFOR_OBS_SPAN(level, category, name, args, sim) ((void)0)
#define LEXFOR_OBS_EVENT(level, category, name, args, sim) ((void)0)
#define LEXFOR_OBS_COUNTER_ADD(name, delta) ((void)0)
#define LEXFOR_OBS_GAUGE_SET(name, value) ((void)0)
#define LEXFOR_OBS_HISTOGRAM_RECORD(name, sample) ((void)0)
#define LEXFOR_OBS_HISTOGRAM_BATCH(var, name) ((void)0)
#define LEXFOR_OBS_HISTOGRAM_BATCH_RECORD(var, sample) ((void)0)
#define LEXFOR_OBS_PROFILE(name) ((void)0)

#endif  // LEXFOR_OBS
