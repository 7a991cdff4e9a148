#include "obs/snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/tracer.h"

namespace lexfor::obs {
namespace {

// Minimal structural JSON check shared with export_test: quotes-aware
// bracket/brace balance.
bool json_balanced(const std::string& text) {
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': ++braces; break;
      case '}': --braces; break;
      case '[': ++brackets; break;
      case ']': --brackets; break;
      default: break;
    }
    if (braces < 0 || brackets < 0) return false;
  }
  return braces == 0 && brackets == 0 && !in_string;
}

// Parses Prometheus text exposition back into (sample name -> value)
// and (family -> type).  Sample names keep their label braces.
struct PromDoc {
  std::map<std::string, double> samples;
  std::map<std::string, std::string> types;
};

// Parses `name{labels} value` / `name value` sample lines and `# TYPE`
// comments; the value is everything after the last space (labels never
// contain spaces here).  gtest ASSERT_* needs a void-returning context,
// hence the inner lambda.
PromDoc must_parse(const std::string& text) {
  PromDoc doc;
  [&] {
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream fields(line.substr(7));
        std::string family;
        std::string kind;
        fields >> family >> kind;
        doc.types[family] = kind;
        continue;
      }
      ASSERT_NE(line.front(), '#') << "unknown comment line: " << line;
      const std::size_t space = line.rfind(' ');
      ASSERT_NE(space, std::string::npos) << line;
      doc.samples[line.substr(0, space)] =
          std::stod(line.substr(space + 1));
    }
  }();
  return doc;
}

MetricsRegistry& populated_registry(MetricsRegistry& reg) {
  reg.counter("legal.evaluations").add(42);
  reg.counter("serve.rejected{reason=\"overload\"}").add(3);
  reg.counter("serve.rejected{reason=\"malformed\"}").add(5);
  reg.gauge("netsim.queue_depth").set(-7);
  Histogram& h = reg.histogram("eval.latency_us", {10, 100, 1000});
  h.record(4);
  h.record(40);
  h.record(400);
  h.record(4000);  // overflow bucket
  return reg;
}

TEST(ObsSnapshotTest, CaptureCopiesEveryInstrument) {
  MetricsRegistry reg;
  populated_registry(reg);
  const Snapshot snap = Snapshot::capture(reg);
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].name, "legal.evaluations");
  EXPECT_EQ(snap.counters[0].value, 42u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].value, -7);
  ASSERT_EQ(snap.histograms.size(), 1u);
  const HistogramSample& h = snap.histograms[0];
  EXPECT_EQ(h.count, 4u);
  EXPECT_EQ(h.sum, 4444);
  EXPECT_EQ(h.min, 4);
  EXPECT_EQ(h.max, 4000);
  ASSERT_EQ(h.buckets.size(), 4u);  // three bounds + overflow
  EXPECT_EQ(h.buckets[3], 1u);
  // The copy is detached: the live registry moving on does not change it.
  reg.counter("legal.evaluations").add(1);
  EXPECT_EQ(snap.counters[0].value, 42u);
}

TEST(ObsSnapshotTest, SampledPercentileMatchesLiveHistogram) {
  MetricsRegistry reg;
  populated_registry(reg);
  const Snapshot snap = Snapshot::capture(reg);
  const Histogram& live = reg.histogram("eval.latency_us");
  for (const double p : {0.0, 50.0, 95.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(snap.histograms[0].percentile(p), live.percentile(p));
  }
}

TEST(ObsSnapshotTest, PrometheusRoundTripMatchesRegistryState) {
  MetricsRegistry reg;
  populated_registry(reg);
  std::ostringstream os;
  Snapshot::capture(reg).to_prometheus(os);
  const PromDoc doc = must_parse(os.str());

  // Counters: dotted names sanitized, label braces passed through.
  EXPECT_EQ(doc.types.at("legal_evaluations"), "counter");
  EXPECT_DOUBLE_EQ(doc.samples.at("legal_evaluations"), 42.0);
  EXPECT_EQ(doc.types.at("serve_rejected"), "counter");
  EXPECT_DOUBLE_EQ(doc.samples.at("serve_rejected{reason=\"overload\"}"),
                   3.0);
  EXPECT_DOUBLE_EQ(doc.samples.at("serve_rejected{reason=\"malformed\"}"),
                   5.0);
  // A registry-only capture has no ring section.
  EXPECT_EQ(doc.types.count("obs_ring_dropped"), 0u);

  // Gauges keep sign.
  EXPECT_EQ(doc.types.at("netsim_queue_depth"), "gauge");
  EXPECT_DOUBLE_EQ(doc.samples.at("netsim_queue_depth"), -7.0);

  // Histogram: cumulative buckets, +Inf == count, sum and count match.
  EXPECT_EQ(doc.types.at("eval_latency_us"), "histogram");
  EXPECT_DOUBLE_EQ(doc.samples.at("eval_latency_us_bucket{le=\"10\"}"), 1.0);
  EXPECT_DOUBLE_EQ(doc.samples.at("eval_latency_us_bucket{le=\"100\"}"), 2.0);
  EXPECT_DOUBLE_EQ(doc.samples.at("eval_latency_us_bucket{le=\"1000\"}"),
                   3.0);
  EXPECT_DOUBLE_EQ(doc.samples.at("eval_latency_us_bucket{le=\"+Inf\"}"),
                   4.0);
  EXPECT_DOUBLE_EQ(doc.samples.at("eval_latency_us_sum"), 4444.0);
  EXPECT_DOUBLE_EQ(doc.samples.at("eval_latency_us_count"), 4.0);
}

TEST(ObsSnapshotTest, PrometheusExportsProfilerSites) {
  MetricsRegistry reg;
  ProfileRegistry prof;
  prof.site("legal.engine.evaluate").record(120);
  prof.site("legal.engine.evaluate").record(80);
  std::ostringstream os;
  Snapshot::capture(reg, &prof).to_prometheus(os);
  const PromDoc doc = must_parse(os.str());
  EXPECT_EQ(doc.types.at("lexfor_profile_hits"), "counter");
  EXPECT_DOUBLE_EQ(
      doc.samples.at("lexfor_profile_hits{site=\"legal.engine.evaluate\"}"),
      2.0);
  EXPECT_DOUBLE_EQ(
      doc.samples.at(
          "lexfor_profile_ns_total{site=\"legal.engine.evaluate\"}"),
      200.0);
  EXPECT_DOUBLE_EQ(
      doc.samples.at(
          "lexfor_profile_min_ns{site=\"legal.engine.evaluate\"}"),
      80.0);
  EXPECT_DOUBLE_EQ(
      doc.samples.at(
          "lexfor_profile_max_ns{site=\"legal.engine.evaluate\"}"),
      120.0);
}

TEST(ObsSnapshotTest, JsonIsBalancedAndCoversEverySection) {
  MetricsRegistry reg;
  ProfileRegistry prof;
  populated_registry(reg);
  prof.site("site.a").record(10);
  std::ostringstream os;
  Snapshot::capture(reg, &prof).to_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{"), std::string::npos);
  EXPECT_NE(json.find("\"profile\":{"), std::string::npos);
  EXPECT_NE(json.find("\"ring\":["), std::string::npos);
  EXPECT_NE(json.find("\"legal.evaluations\":42"), std::string::npos);
  EXPECT_NE(json.find("\"site.a\""), std::string::npos);
}

TEST(ObsSnapshotTest, ExpositionListsInstrumentsSortedByName) {
  MetricsRegistry reg;
  reg.counter("b.count").add(2);
  reg.counter("a.count").add(1);
  reg.gauge("depth").set(3);
  reg.histogram("lat", {10}).record(5);
  const Snapshot snap = Snapshot::capture(reg);

  std::ostringstream prom;
  snap.to_prometheus(prom);
  const std::string text = prom.str();
  EXPECT_NE(text.find("\na_count 1\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nb_count 2\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\ndepth 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("\nlat_count 1\n"), std::string::npos) << text;
  EXPECT_LT(text.find("a_count"), text.find("b_count"));

  std::ostringstream json;
  snap.to_json(json);
  EXPECT_NE(json.str().find("\"counters\":{\"a.count\":1,\"b.count\":2}"),
            std::string::npos)
      << json.str();
}

TEST(ObsSnapshotTest, JsonCarriesGaugeSignAndHistogramStats) {
  MetricsRegistry reg;
  reg.counter("hits").add(7);
  reg.gauge("depth").set(-2);
  reg.histogram("lat", {10, 100}).record(42);
  std::ostringstream os;
  Snapshot::capture(reg).to_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"counters\":{\"hits\":7}"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\":{\"depth\":-2}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{\"lat\":{\"count\":1,\"sum\":42,"
                      "\"min\":42,\"max\":42,\"mean\":42.000,"
                      "\"p50\":42.000,\"p95\":42.000,\"p99\":42.000}}"),
            std::string::npos)
      << json;
}

// Label suffixes put quotes in instrument names; JSON escapes them.
TEST(ObsSnapshotTest, JsonEscapesLabelledNames) {
  MetricsRegistry reg;
  populated_registry(reg);
  std::ostringstream os;
  Snapshot::capture(reg).to_json(os);
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find(R"("serve.rejected{reason=\"overload\"}":3)"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("serve.rejected{reason=\"malformed\"}":5)"),
            std::string::npos)
      << json;
}

TEST(ObsSnapshotTest, GlobalCaptureIncludesRingStats) {
  const Snapshot snap = Snapshot::capture();
  // The exhaustive invariant holds for whatever shards exist.
  for (const RingShardStats& r : snap.ring) {
    EXPECT_EQ(r.pushed, r.drained + r.dropped + r.size);
  }
  std::ostringstream os;
  snap.to_json(os);
  EXPECT_TRUE(json_balanced(os.str()));
}

// The process-wide tracer at kDebug for one test, restored after.
class ScopedGlobalLevel {
 public:
  explicit ScopedGlobalLevel(Level level) : saved_(tracer().level()) {
    tracer().set_level(level);
  }
  ~ScopedGlobalLevel() { tracer().set_level(saved_); }
  ScopedGlobalLevel(const ScopedGlobalLevel&) = delete;
  ScopedGlobalLevel& operator=(const ScopedGlobalLevel&) = delete;

 private:
  Level saved_;
};

TEST(ObsSnapshotTest, PrometheusRingDropLinesEqualSnapshotRing) {
  const ScopedGlobalLevel debug(Level::kDebug);
  // Overflow this thread's shard so at least one drop count is nonzero.
  const std::size_t overflow = tracer().ring().shard_capacity() + 10;
  for (std::size_t i = 0; i < overflow; ++i) {
    tracer().instant(Level::kDebug, "test", "overflow");
  }
  const Snapshot snap = Snapshot::capture();
  std::ostringstream os;
  snap.to_prometheus(os);
  const PromDoc doc = must_parse(os.str());

  ASSERT_FALSE(snap.ring.empty());
  EXPECT_EQ(doc.types.at("obs_ring_dropped"), "counter");
  std::size_t lines = 0;
  for (const auto& [name, value] : doc.samples) {
    if (name.rfind("obs_ring_dropped{", 0) == 0) ++lines;
  }
  EXPECT_EQ(lines, snap.ring.size());
  std::uint64_t dropped = 0;
  for (const RingShardStats& r : snap.ring) {
    const std::string name =
        "obs_ring_dropped{shard=\"" + std::to_string(r.shard) + "\"}";
    EXPECT_DOUBLE_EQ(doc.samples.at(name), static_cast<double>(r.dropped))
        << name;
    dropped += r.dropped;
  }
  EXPECT_GE(dropped, 10u);
}

TEST(ObsSnapshotTest, RingStatsHoldTheirIdentityWhileThreadsTrace) {
  const ScopedGlobalLevel debug(Level::kDebug);
  std::atomic<bool> stop{false};
  std::atomic<int> tracing{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < 2; ++k) {
    threads.emplace_back([&stop, &tracing] {
      tracer().instant(Level::kDebug, "test", "busy");
      tracing.fetch_add(1);
      while (!stop.load(std::memory_order_relaxed)) {
        tracer().instant(Level::kDebug, "test", "busy");
      }
    });
  }
  // On a loaded host the snapshots below can all finish before either
  // thread is first scheduled; start them once both have traced.
  while (tracing.load() < 2) std::this_thread::yield();
  std::size_t entries = 0;
  std::size_t torn = 0;
  for (int i = 0; i < 20'000; ++i) {
    for (const RingShardStats& r : Snapshot::capture().ring) {
      ++entries;
      if (r.pushed != r.drained + r.dropped + r.size) ++torn;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  EXPECT_GT(entries, 0u);
  EXPECT_EQ(torn, 0u) << torn << " of " << entries
                      << " shard entries broke pushed == drained + "
                         "dropped + size";
}

}  // namespace
}  // namespace lexfor::obs
