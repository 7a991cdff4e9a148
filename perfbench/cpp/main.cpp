// perfbench — one command, four workloads, every metric by name and unit.
//
//   perfbench --workload <serve_hot|serve_cold|traceback|multiflow_scan>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// The untraced run (--trace 0) measures the end-to-end metrics; the traced
// run (--trace 1) opens a span around every call the benchmark makes into
// a layer and reports the per-layer metrics.  Human-readable lines come
// first; the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Metrics a workload's path does not touch read 0.  Names and units must
// match BENCHMARK.json.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "serve/server.h"
#include "tornet/traceback.h"
#include "watermark/correlate.h"
#include "watermark/scan_batch.h"
#include "workloads.h"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"serve.serve_ns", "ns"},
    {"serve.wait_us", "us"},
    {"serve.batch_requests", "count"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_lookups", "count"},
    {"serve.coverage", "ratio"},
    {"client.generate_ns", "ns"},
    {"wire.decode_ns", "ns"},
    {"legal.fingerprint_ns", "ns"},
    {"legal.evaluate_ns", "ns"},
    {"legal.cached_evaluate_ns", "ns"},
    {"wire.encode_ns", "ns"},
    {"tornet.circuit_us", "us"},
    {"tornet.synth_ms", "ms"},
    {"tornet.transit_ms", "ms"},
    {"tornet.bin_ms", "ms"},
    {"tornet.packets", "count"},
    {"stream.tap_us", "us"},
    {"legal.evaluate_us", "us"},
    {"watermark.scan_ms", "ms"},
    {"watermark.ns_per_offset", "ns"},
    {"watermark.threads", "count"},
    {"traceback.coverage", "ratio"},
    {"multiflow_scan.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serve_hot|serve_cold|traceback|multiflow_scan> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               why);
  std::exit(2);
}

bool cpu_has_avx2_fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

void print_header(const perfbench::RunOptions& o) {
  using perfbench::resolve_threads;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::printf("# nproc=%ld hardware_concurrency=%u build_type=%s obs=%d\n",
              sysconf(_SC_NPROCESSORS_ONLN),
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              LEXFOR_OBS);
  std::printf("# avx2 despread lane: built=%d cpu_avx2_fma=%d usable=%d "
              "(opt-in; no workload turns it on)\n",
              PERFBENCH_SIMD_BUILT, cpu_has_avx2_fma() ? 1 : 0,
              lexfor::watermark::CorrelationKernel::simd_lane_available() ? 1
                                                                          : 0);
  const unsigned serve_workers =
      resolve_threads(lexfor::serve::ServerOptions{}.workers);
  const unsigned detect_threads =
      resolve_threads(lexfor::tornet::TracebackConfig{}.detect_threads);
  std::printf(
      "# threads: serve_hot=%u serve_cold=%u (VerdictServer default "
      "workers) traceback=1 (TracebackConfig::detect_threads resolves to "
      "%u, unused by the streaming path) multiflow_scan=1 (ScanBatch with "
      "one worker; its default would resolve to %u)\n",
      serve_workers, serve_workers, detect_threads,
      resolve_threads(lexfor::watermark::ScanBatchOptions{}.threads));
}

void print_json(const perfbench::Outcome& out, bool trace) {
  bool finite = true;
  std::string metrics;
  const auto emit = [&](const MetricDef& d) {
    const auto it = out.metrics.find(d.name);
    double v = it == out.metrics.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {
      finite = false;
      v = 0.0;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", d.name, v, d.unit);
    metrics += buf;
  };
  if (trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  const bool correct = finite && out.failed() == 0 && out.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted()),
              static_cast<unsigned long long>(out.failed()), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 60.0) {
        usage("--seconds takes a number in (0, 60]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      o.trace = value[0] == '1';
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

  print_header(o);
  std::fflush(stdout);
  perfbench::Outcome out(o.seed);
  if (o.workload == "serve_hot") {
    perfbench::run_serve(o, /*cold=*/false, out);
  } else if (o.workload == "serve_cold") {
    perfbench::run_serve(o, /*cold=*/true, out);
  } else if (o.workload == "traceback") {
    perfbench::run_traceback(o, out);
  } else if (o.workload == "multiflow_scan") {
    perfbench::run_multiflow_scan(o, out);
  } else {
    usage(("unknown workload " + o.workload).c_str());
  }
  print_json(out, o.trace);
  return 0;
}
