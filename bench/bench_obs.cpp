// A-OBS2: observability v2 overhead + correctness gates.
//
// The obs layer is compiled into every module, so its cost model must
// hold: a disabled-level event is one relaxed atomic load and a branch
// (within noise of the uninstrumented baseline), an enabled event goes
// into the emitting thread's ring shard without cross-thread
// contention, metrics updates are single atomic ops, and a disabled
// profiler scope is a load + branch.  The baseline workload does
// representative engine-adjacent arithmetic (~100ns) so the
// disabled-path delta is measured against real work, not an empty
// loop.
//
// Unlike v1 this bench SELF-GATES (exit 1 on violation) before the
// timing runs, on stderr so stdout stays pure google-benchmark JSON
// for tools/run_benchmarks.sh:
//
//   gate 1  8-thread sharded-ring stress through a Tracer: every
//           emitted event drains exactly once, merged strictly
//           (wall_ns, seq)-ordered, per-thread streams intact (each
//           event names its thread and carries its index there);
//   gate 2  overflow accounting: 1000 instants on a deliberately tiny
//           ring give pushed == 1000 == drained + dropped;
//   gate 3  disabled-path tracing stays within noise of the
//           uninstrumented workload (generous 15% bound, best of 5
//           trials — single-core CI makes tight timing gates flaky).
//
// After the timing runs, if LEXFOR_OBS_SNAPSHOT_OUT is set in the
// environment, the process-wide obs::Snapshot is written there as JSON
// for tools/run_benchmarks.sh to embed into BENCH_<date>.json.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace {

using namespace lexfor;

// Representative unit of work: a short integer hash chain, opaque to the
// optimizer.  Everything below measures deltas against this.
std::uint64_t workload(std::uint64_t seed) {
  std::uint64_t h = seed * 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 16; ++i) {
    h ^= h >> 33;
    h *= 0xFF51AFD7ED558CCDull;
  }
  return h;
}

// ---------------------------------------------------------------------------
// Self-gates (stderr only; stdout belongs to google-benchmark JSON).
// ---------------------------------------------------------------------------

bool gate_stress_merge() {
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 5'000;
  obs::Tracer tracer(/*ring_capacity=*/kPerThread);  // per shard: no drops
  tracer.set_level(obs::Level::kDebug);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&tracer, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        tracer.instant(obs::Level::kDebug, "stress", "t" + std::to_string(t),
                       "i=" + std::to_string(i));
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::vector<obs::TraceEvent> events = tracer.ring().drain();
  if (events.size() != kThreads * kPerThread) {
    std::fprintf(stderr,
                 "GATE FAIL stress-merge: drained %zu of %llu events\n",
                 events.size(),
                 static_cast<unsigned long long>(kThreads * kPerThread));
    return false;
  }
  std::set<std::uint64_t> seqs;
  std::vector<long long> last(kThreads, -1);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::TraceEvent& ev = events[i];
    if (i > 0) {
      const obs::TraceEvent& prev = events[i - 1];
      const bool ordered = prev.wall_ns < ev.wall_ns ||
                           (prev.wall_ns == ev.wall_ns && prev.seq < ev.seq);
      if (!ordered) {
        std::fprintf(stderr,
                     "GATE FAIL stress-merge: event %zu out of "
                     "(wall_ns, seq) order\n",
                     i);
        return false;
      }
    }
    if (!seqs.insert(ev.seq).second) {
      std::fprintf(stderr, "GATE FAIL stress-merge: duplicate seq %llu\n",
                   static_cast<unsigned long long>(ev.seq));
      return false;
    }
    // Name "tK" is the thread, args "i=N" its index in that stream.
    const std::size_t t = ev.name[1] - '0';
    const long long index = std::stoll(ev.args.substr(2));
    if (index != last[t] + 1) {
      std::fprintf(stderr,
                   "GATE FAIL stress-merge: thread %zu stream reordered "
                   "(saw %lld after %lld)\n",
                   t, index, last[t]);
      return false;
    }
    last[t] = index;
  }
  std::fprintf(stderr,
               "gate stress-merge OK: %zu events, %zu shards, strict "
               "order, no loss\n",
               events.size(), tracer.ring().shard_count());
  return true;
}

bool gate_overflow_accounting() {
  constexpr std::uint64_t kEvents = 1'000;
  obs::Tracer tracer(/*ring_capacity=*/32);
  tracer.set_level(obs::Level::kDebug);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    tracer.instant(obs::Level::kInfo, "overflow", "e");
  }
  (void)tracer.ring().drain();
  const obs::RingCounts c = tracer.ring().counts();
  const bool ok = c.pushed == kEvents && c.pushed == c.drained + c.dropped;
  std::fprintf(stderr,
               "gate overflow-accounting %s: pushed %llu (of %llu) == "
               "drained %llu + dropped %llu\n",
               ok ? "OK" : "FAIL", static_cast<unsigned long long>(c.pushed),
               static_cast<unsigned long long>(kEvents),
               static_cast<unsigned long long>(c.drained),
               static_cast<unsigned long long>(c.dropped));
  return ok;
}

double time_loop_ns(bool instrumented) {
  constexpr int kIters = 200'000;
  obs::tracer().set_level(obs::Level::kOff);
  std::uint64_t x = 1;
  const auto begin = std::chrono::steady_clock::now();
  if (instrumented) {
    for (int i = 0; i < kIters; ++i) {
      x = workload(x);
      LEXFOR_OBS_EVENT(obs::Level::kDebug, "bench", "tick",
                       "x=" + std::to_string(x), obs::no_sim_time());
      LEXFOR_OBS_PROFILE("bench.gate.disabled");
      benchmark::DoNotOptimize(x);
    }
  } else {
    for (int i = 0; i < kIters; ++i) {
      x = workload(x);
      benchmark::DoNotOptimize(x);
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - begin;
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                 .count()) /
         kIters;
}

bool gate_disabled_within_noise() {
  // Best of 5 trials: single-core containers schedule noisily, and the
  // claim under test (one relaxed load + branch per macro) only needs
  // ONE clean trial to demonstrate.
  double best_ratio = 1e9;
  double base_ns = 0.0;
  double inst_ns = 0.0;
  for (int trial = 0; trial < 5; ++trial) {
    const double base = time_loop_ns(false);
    const double inst = time_loop_ns(true);
    const double ratio = inst / base;
    if (ratio < best_ratio) {
      best_ratio = ratio;
      base_ns = base;
      inst_ns = inst;
    }
  }
  const bool ok = best_ratio <= 1.15;
  std::fprintf(stderr,
               "gate disabled-path %s: baseline %.1fns vs disabled-macros "
               "%.1fns (best ratio %.3f, bound 1.15)\n",
               ok ? "OK" : "FAIL", base_ns, inst_ns, best_ratio);
  return ok;
}

void write_snapshot_if_requested() {
  const char* path = std::getenv("LEXFOR_OBS_SNAPSHOT_OUT");
  if (path == nullptr || *path == '\0') return;
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot write obs snapshot to %s\n", path);
    return;
  }
  // Ensure the global ring has at least the main thread's shard so the
  // snapshot's "ring" section is never empty.
  obs::tracer().ring().register_this_thread();
  obs::Snapshot::capture().to_json(os);
  std::fprintf(stderr, "obs snapshot written to %s\n", path);
}

// ---------------------------------------------------------------------------
// Microbenchmarks.
// ---------------------------------------------------------------------------

void BM_Workload_Baseline(benchmark::State& state) {
  obs::tracer().set_level(obs::Level::kOff);
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = workload(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Workload_Baseline);

// Same workload with a disabled-level instrumentation point: the string
// argument must NOT be constructed (the macro guards evaluation), so
// the delta vs baseline is just the level check.
void BM_Workload_EventDisabled(benchmark::State& state) {
  obs::tracer().set_level(obs::Level::kOff);
  std::uint64_t x = 1;
  for (auto _ : state) {
    x = workload(x);
    LEXFOR_OBS_EVENT(obs::Level::kDebug, "bench", "tick",
                     "x=" + std::to_string(x), obs::no_sim_time());
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Workload_EventDisabled);

void BM_Workload_SpanDisabled(benchmark::State& state) {
  obs::tracer().set_level(obs::Level::kOff);
  std::uint64_t x = 1;
  for (auto _ : state) {
    LEXFOR_OBS_SPAN(obs::Level::kInfo, "bench", "work",
                    "x=" + std::to_string(x), obs::no_sim_time());
    x = workload(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Workload_SpanDisabled);

void BM_Workload_ProfileDisabled(benchmark::State& state) {
  obs::profiler().set_enabled(false);
  std::uint64_t x = 1;
  for (auto _ : state) {
    LEXFOR_OBS_PROFILE("bench.obs.profile_disabled");
    x = workload(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_Workload_ProfileDisabled);

void BM_Workload_ProfileEnabled(benchmark::State& state) {
  obs::profiler().set_enabled(true);
  std::uint64_t x = 1;
  for (auto _ : state) {
    LEXFOR_OBS_PROFILE("bench.obs.profile_enabled");
    x = workload(x);
    benchmark::DoNotOptimize(x);
  }
  obs::profiler().set_enabled(false);
}
BENCHMARK(BM_Workload_ProfileEnabled);

// Enabled paths: event emission into the emitting thread's ring shard,
// the only place an accepted event goes: stamp + seq + shard push.
// The threaded variants show what sharding buys: each thread writes
// its own shard, and the only shared write left is the ring's sequence
// counter.
void BM_EventEnabled_NoArgs(benchmark::State& state) {
  static obs::Tracer* tracer = [] {
    auto* t = new obs::Tracer();
    t->set_level(obs::Level::kDebug);
    return t;
  }();
  for (auto _ : state) {
    tracer->instant(obs::Level::kDebug, "bench", "tick");
  }
  if (state.thread_index() == 0) {
    state.counters["events"] =
        benchmark::Counter(static_cast<double>(tracer->ring().pushed()),
                           benchmark::Counter::kIsRate);
  }
}
BENCHMARK(BM_EventEnabled_NoArgs)->ThreadRange(1, 8);

void BM_EventEnabled_WithArgs(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.set_level(obs::Level::kDebug);
  std::uint64_t i = 0;
  for (auto _ : state) {
    tracer.instant(obs::Level::kDebug, "bench", "tick",
                   "i=" + std::to_string(++i));
  }
}
BENCHMARK(BM_EventEnabled_WithArgs);

void BM_SpanEnabled(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.set_level(obs::Level::kInfo);
  for (auto _ : state) {
    const obs::Span s = tracer.span(obs::Level::kInfo, "bench", "work");
    benchmark::DoNotOptimize(s.id());
  }
}
BENCHMARK(BM_SpanEnabled);

void BM_ShardedRingPush(benchmark::State& state) {
  static obs::ShardedEventRing* ring = new obs::ShardedEventRing(4096);
  obs::TraceEvent ev;
  ev.category = "bench";
  ev.name = "push";
  for (auto _ : state) {
    ring->push(ev);
  }
}
BENCHMARK(BM_ShardedRingPush)->ThreadRange(1, 8);

void BM_TracerDrain(benchmark::State& state) {
  obs::Tracer tracer;
  tracer.set_level(obs::Level::kDebug);
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 1'000; ++i) {
      tracer.instant(obs::Level::kDebug, "bench", "fill");
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(tracer.ring().drain());
  }
}
BENCHMARK(BM_TracerDrain);

// Metrics: always-on atomics — these run even at Level::kOff.
void BM_CounterAdd(benchmark::State& state) {
  for (auto _ : state) {
    LEXFOR_OBS_COUNTER_ADD("bench.obs.counter", 1);
  }
}
BENCHMARK(BM_CounterAdd);

void BM_GaugeSet(benchmark::State& state) {
  [[maybe_unused]] std::int64_t v = 0;
  for (auto _ : state) {
    LEXFOR_OBS_GAUGE_SET("bench.obs.gauge", ++v);
  }
}
BENCHMARK(BM_GaugeSet);

void BM_HistogramRecord(benchmark::State& state) {
  std::int64_t v = 0;
  for (auto _ : state) {
    v = (v + 97) % 5'000'000;
    LEXFOR_OBS_HISTOGRAM_RECORD("bench.obs.hist", v);
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  obs::Histogram h("bench.p", {});
  for (std::int64_t v = 1; v < 100'000; v += 7) h.record(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.percentile(95));
  }
}
BENCHMARK(BM_HistogramPercentile);

// Export paths: snapshot capture and the two renderers, over the
// process-wide registry as populated by this binary's own runs.
void BM_SnapshotCapture(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::Snapshot::capture());
  }
}
BENCHMARK(BM_SnapshotCapture);

void BM_SnapshotPrometheus(benchmark::State& state) {
  const obs::Snapshot snap = obs::Snapshot::capture();
  for (auto _ : state) {
    std::ostringstream os;
    snap.to_prometheus(os);
    benchmark::DoNotOptimize(os.str());
  }
}
BENCHMARK(BM_SnapshotPrometheus);

void BM_SnapshotJson(benchmark::State& state) {
  const obs::Snapshot snap = obs::Snapshot::capture();
  for (auto _ : state) {
    std::string out;
    snap.append_json(out);
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_SnapshotJson);

}  // namespace

int main(int argc, char** argv) {
  const bool gates_ok = gate_stress_merge() && gate_overflow_accounting() &&
                        gate_disabled_within_noise();
  if (!gates_ok) {
    std::fprintf(stderr, "A-OBS2 self-gates FAILED\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  write_snapshot_if_requested();
  return 0;
}
