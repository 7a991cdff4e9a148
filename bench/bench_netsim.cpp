// A-NETSIM: discrete-event simulator throughput (events/sec, packets/sec)
// — the substrate every experiment runs on.
//
// Self-gating (ISSUE 8): before any timing runs, three correctness gates
// execute and the process exits 1 if any fails, so a perf regression or
// a semantic drift in the rebuilt core can never publish numbers:
//
//  1. THROUGHPUT FLATNESS — events/s with 1M+ queued events must stay
//     >= 0.8x the 1k-queue rate (the old heap-of-std::function queue
//     collapsed to ~0.2x; the calendar queue must not).
//  2. ORDER BIT-IDENTITY — the calendar EventQueue must fire randomized
//     schedules (including events scheduled from inside callbacks, and
//     past-time clamping) in exactly the order of the retained
//     HeapEventQueue oracle.
//  3. CHURN ACCOUNTING — on a topology under connect/disconnect churn,
//     sent == delivered + dropped, every flow's emitted() matches the
//     network's accepted sends (emitted + errors = attempts), and the
//     per-link state maps stay flat.
//
// Gate diagnostics go to stderr; stdout stays pure google-benchmark
// output so tools/run_benchmarks.sh can parse the JSON.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <vector>

#include "netsim/flow.h"
#include "netsim/network.h"
#include "oracles/heap_event_queue.h"
#include "util/rng.h"

namespace {

using namespace lexfor;
using namespace lexfor::netsim;
using lexfor::oracles::HeapEventQueue;

// --- gate 1: throughput flatness ------------------------------------

// Schedules `n` events over 997 distinct timestamps (the worst case for
// a naive calendar queue: occupancy >> windows) and drains the queue,
// `reps` times back to back; returns aggregate events/s.  Aggregating
// over comparable wall time for both queue sizes matters: a 150us
// 1k-event run can land entirely in a quiet scheduler slice that a
// 200ms 1M-event run must average over, and a best-of-N of such bursts
// would inflate the small-queue baseline with pure timing noise.
double aggregate_events_per_sec(std::int64_t n, int reps) {
  double total_sec = 0.0;
  for (int t = 0; t < reps; ++t) {
    EventQueue q;
    const auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      q.schedule_at(SimTime::from_us(i % 997), [] {});
    }
    q.run();
    const auto stop = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(q.processed());
    total_sec += std::chrono::duration<double>(stop - start).count();
  }
  return static_cast<double>(n) * reps / total_sec;
}

bool gate_throughput_flat() {
  constexpr std::int64_t kSmall = 1'000;
  constexpr std::int64_t kLarge = 1'048'576;  // 1M+ queued events
  (void)aggregate_events_per_sec(kSmall, 50);  // warm caches + allocator
  // A shared/virtualized runner can still eat one measurement; the gate
  // retries a bounded number of times before declaring a regression.
  for (int attempt = 1; attempt <= 3; ++attempt) {
    const double small_rate = aggregate_events_per_sec(kSmall, 400);
    const double large_rate = aggregate_events_per_sec(kLarge, 2);
    const double ratio = large_rate / small_rate;
    std::fprintf(stderr,
                 "[gate:throughput] attempt %d: 1k=%.3gM/s 1M=%.3gM/s "
                 "ratio=%.3f (floor 0.8)\n",
                 attempt, small_rate / 1e6, large_rate / 1e6, ratio);
    if (ratio >= 0.8) return true;
  }
  return false;
}

// --- gate 2: order bit-identity vs the heap oracle -------------------

// Replays one randomized schedule on a queue; returns the (id, at_us)
// firing trace.  Some events schedule children from inside their own
// callback (the pattern every simulator in the repo uses), and some are
// scheduled in the past to exercise the clamp-to-now rule.
template <typename Queue>
std::vector<std::pair<int, std::int64_t>> firing_trace(std::uint64_t seed,
                                                       int n_roots) {
  Queue q;
  std::vector<std::pair<int, std::int64_t>> trace;
  Rng rng{seed};
  int next_id = 0;
  // fire(): record, then maybe spawn two children relative to now.
  std::function<void(int)> fire = [&](int id) {
    trace.emplace_back(id, q.now().us);
    if (id % 7 == 3) {
      const int a = 1'000'000 + id * 2;
      const int b = a + 1;
      q.schedule_at(q.now() + SimDuration::from_us(id % 11),
                    [&fire, a] { fire(a); });
      // Past-time child: clamps to now, fires after already-queued
      // same-time events (FIFO by sequence).
      q.schedule_at(SimTime::from_us(q.now().us - 5), [&fire, b] { fire(b); });
    }
  };
  for (int i = 0; i < n_roots; ++i) {
    const int id = next_id++;
    q.schedule_at(SimTime::from_us(static_cast<std::int64_t>(
                      rng.uniform(2'000))),
                  [&fire, id] { fire(id); });
  }
  q.run();
  return trace;
}

bool gate_order_identity() {
  for (const std::uint64_t seed : {1ull, 42ull, 1337ull, 0xdeadbeefull}) {
    const auto oracle = firing_trace<HeapEventQueue>(seed, 2'000);
    const auto actual = firing_trace<EventQueue>(seed, 2'000);
    if (oracle != actual) {
      std::fprintf(stderr,
                   "[gate:order] seed=%llu: calendar queue diverged from "
                   "heap oracle (%zu vs %zu events)\n",
                   static_cast<unsigned long long>(seed), actual.size(),
                   oracle.size());
      return false;
    }
  }
  std::fprintf(stderr, "[gate:order] calendar == heap oracle on 4 seeds\n");
  return true;
}

// --- gate 3: accounting under topology churn -------------------------

bool gate_churn_accounting() {
  Network net{7};
  const NodeId a = net.add_node("a");
  const NodeId b = net.add_node("b");
  const NodeId c = net.add_node("c");
  const NodeId d = net.add_node("d");
  const NodeId island = net.add_node("island");  // never connected

  LinkConfig cfg;
  cfg.latency = SimDuration::from_ms(2.0);
  cfg.drop_probability = 0.01;
  cfg.bandwidth_bytes_per_sec = 1e6;  // populates link_busy_until_
  (void)net.connect(a, b, cfg).value();
  LinkId mid = net.connect(b, c, cfg).value();
  (void)net.connect(c, d, cfg).value();
  (void)net.add_node_tap(d, [](const TapEvent&) {});

  FlowConfig fc;
  fc.id = FlowId{1};
  fc.src = a;
  fc.dst = d;
  fc.packets_per_sec = 2'000.0;
  fc.stop = SimTime::from_sec(1.0);
  FlowSource flow(net, fc, ArrivalProcess::kPoisson, 11);
  flow.start();

  FlowConfig pc = fc;
  pc.id = FlowId{2};
  pc.dst = island;  // partitioned: every send must be refused
  FlowSource partitioned(net, pc, ArrivalProcess::kConstant, 12);
  partitioned.start();

  // Churn the middle link every 50ms: packets in flight across the
  // removal are dropped-and-counted; reconnection re-routes new sends.
  std::function<void()> churn = [&] {
    (void)net.disconnect(mid);
    mid = net.connect(b, c, cfg).value();
    if (net.now() < SimTime::from_sec(0.9)) {
      net.clock().schedule_in(SimDuration::from_ms(50.0), [&churn] { churn(); });
    }
  };
  net.clock().schedule_in(SimDuration::from_ms(50.0), [&churn] { churn(); });

  net.run();

  bool ok = true;
  if (net.packets_sent() !=
      net.packets_delivered() + net.packets_dropped()) {
    std::fprintf(stderr, "[gate:churn] sent != delivered + dropped\n");
    ok = false;
  }
  if (flow.emitted() + partitioned.emitted() != net.packets_sent()) {
    std::fprintf(stderr, "[gate:churn] emitted != accepted sends\n");
    ok = false;
  }
  if (partitioned.emitted() != 0 || partitioned.errors() == 0) {
    std::fprintf(stderr, "[gate:churn] partitioned flow accounting wrong\n");
    ok = false;
  }
  // Per-link maps must not leak one entry per churned link.
  if (net.busy_link_entries() > net.link_count() ||
      net.link_tap_entries() > net.link_count()) {
    std::fprintf(stderr, "[gate:churn] per-link state leaked (%zu busy, "
                         "%zu tap entries, %zu links ever created)\n",
                 net.busy_link_entries(), net.link_tap_entries(),
                 net.link_count());
    ok = false;
  }
  if (net.packet_store().live() != 0) {
    std::fprintf(stderr, "[gate:churn] packet slots leaked: %zu live\n",
                 net.packet_store().live());
    ok = false;
  }
  if (ok) {
    std::fprintf(stderr,
                 "[gate:churn] sent=%llu delivered=%llu dropped=%llu "
                 "refused=%llu; maps flat\n",
                 static_cast<unsigned long long>(net.packets_sent()),
                 static_cast<unsigned long long>(net.packets_delivered()),
                 static_cast<unsigned long long>(net.packets_dropped()),
                 static_cast<unsigned long long>(partitioned.errors()));
  }
  return ok;
}

// --- benchmarks ------------------------------------------------------

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      q.schedule_at(SimTime::from_us(i % 997), [] {});
    }
    q.run();
    benchmark::DoNotOptimize(q.processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueScheduleRun)->Range(1024, 1 << 20);

// The retained oracle, benchmarked for the before/after comparison the
// JSON artifacts preserve.
void BM_HeapEventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    HeapEventQueue q;
    const auto n = state.range(0);
    for (std::int64_t i = 0; i < n; ++i) {
      q.schedule_at(SimTime::from_us(i % 997), [] {});
    }
    q.run();
    benchmark::DoNotOptimize(q.processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_HeapEventQueueScheduleRun)->Range(1024, 1 << 17);

void BM_PacketDeliveryLine(benchmark::State& state) {
  // src -- r1 -- r2 -- dst line; measures full routed delivery.
  for (auto _ : state) {
    state.PauseTiming();
    Network net{1};
    const NodeId src = net.add_node("src");
    const NodeId r1 = net.add_node("r1");
    const NodeId r2 = net.add_node("r2");
    const NodeId dst = net.add_node("dst");
    (void)net.connect(src, r1).value();
    (void)net.connect(r1, r2).value();
    (void)net.connect(r2, dst).value();
    PacketHeader h;
    h.src = src;
    h.dst = dst;
    state.ResumeTiming();

    for (std::int64_t i = 0; i < state.range(0); ++i) {
      (void)net.send(FlowId{1}, h, Bytes(64, 0));
    }
    net.run();
    benchmark::DoNotOptimize(net.packets_delivered());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PacketDeliveryLine)->Range(256, 16384);

void BM_ShortestPathGrid(benchmark::State& state) {
  // k x k grid; BFS from corner to corner.
  const std::int64_t k = state.range(0);
  Network net{2};
  std::vector<NodeId> nodes;
  for (std::int64_t i = 0; i < k * k; ++i) {
    nodes.push_back(net.add_node("n" + std::to_string(i)));
  }
  for (std::int64_t r = 0; r < k; ++r) {
    for (std::int64_t c = 0; c < k; ++c) {
      if (c + 1 < k) {
        (void)net.connect(nodes[static_cast<std::size_t>(r * k + c)],
                          nodes[static_cast<std::size_t>(r * k + c + 1)]);
      }
      if (r + 1 < k) {
        (void)net.connect(nodes[static_cast<std::size_t>(r * k + c)],
                          nodes[static_cast<std::size_t>((r + 1) * k + c)]);
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.shortest_path(nodes.front(), nodes.back()));
  }
}
BENCHMARK(BM_ShortestPathGrid)->Arg(8)->Arg(16)->Arg(32);

// Memoized routing: repeated sends on a fixed pair hit the RouteCache
// instead of re-running BFS per packet.
void BM_RouteCacheHit(benchmark::State& state) {
  const std::int64_t k = 16;
  Network net{5};
  std::vector<NodeId> nodes;
  for (std::int64_t i = 0; i < k * k; ++i) {
    nodes.push_back(net.add_node("n" + std::to_string(i)));
  }
  for (std::int64_t r = 0; r < k; ++r) {
    for (std::int64_t c = 0; c < k; ++c) {
      if (c + 1 < k) {
        (void)net.connect(nodes[static_cast<std::size_t>(r * k + c)],
                          nodes[static_cast<std::size_t>(r * k + c + 1)]);
      }
      if (r + 1 < k) {
        (void)net.connect(nodes[static_cast<std::size_t>(r * k + c)],
                          nodes[static_cast<std::size_t>((r + 1) * k + c)]);
      }
    }
  }
  PacketHeader h;
  h.src = nodes.front();
  h.dst = nodes.back();
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      (void)net.send(FlowId{1}, h, Bytes(64, 0));
    }
    net.run();
  }
  state.SetItemsProcessed(state.iterations() * 64);
  state.counters["bfs_runs"] =
      static_cast<double>(net.route_cache().bfs_runs());
}
BENCHMARK(BM_RouteCacheHit);

void BM_FlowThroughTap(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Network net{3};
    const NodeId a = net.add_node("a");
    const NodeId b = net.add_node("b");
    (void)net.connect(a, b).value();
    std::uint64_t tapped = 0;
    (void)net.add_node_tap(b, [&](const TapEvent&) { ++tapped; });
    FlowConfig cfg;
    cfg.id = FlowId{1};
    cfg.src = a;
    cfg.dst = b;
    cfg.packets_per_sec = static_cast<double>(state.range(0));
    cfg.stop = SimTime::from_sec(1.0);
    FlowSource flow(net, cfg, ArrivalProcess::kPoisson, 4);
    state.ResumeTiming();

    flow.start();
    net.run();
    benchmark::DoNotOptimize(tapped);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FlowThroughTap)->Arg(1000)->Arg(10000)->Arg(100000);

}  // namespace

int main(int argc, char** argv) {
  const bool gates_ok =
      gate_order_identity() && gate_churn_accounting() && gate_throughput_flat();
  if (!gates_ok) {
    std::fprintf(stderr, "A-NETSIM self-gates FAILED\n");
    return 1;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
