#include "obs/export.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/tracer.h"

namespace lexfor::obs {
namespace {

// Minimal structural JSON check: quotes-aware bracket/brace balance.
// Catches unterminated arrays, unbalanced objects and broken escaping —
// the failure modes a hand-rolled serializer can have.
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

TEST(ObsExportTest, JsonEscaping) {
  std::string out;
  append_json_escaped(out, "a\"b\\c\nd\te");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te");
}

TEST(ObsExportTest, ArgsToJsonExpandsPairs) {
  EXPECT_EQ(args_to_json("k=v"), "\"k\":\"v\"");
  EXPECT_EQ(args_to_json("a=1,b=two"), "\"a\":\"1\",\"b\":\"two\"");
  EXPECT_EQ(args_to_json("bare"), "\"note\":\"bare\"");
  EXPECT_EQ(args_to_json(""), "");
}

TEST(ObsExportTest, JsonlLinesAreOneValidObjectEach) {
  Tracer t;
  t.set_level(Level::kDebug);
  t.instant(Level::kInfo, "legal", "verdict", "scenario=email");
  t.instant(Level::kDebug, "netsim", "delivered", "", SimTime::from_us(7));

  const std::vector<TraceEvent> events = t.ring().snapshot();
  ASSERT_EQ(events.size(), 2u);
  std::string all;
  for (const TraceEvent& ev : events) {
    std::string line;
    append_event_jsonl(line, ev);
    EXPECT_TRUE(json_balanced(line)) << line;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);
    all += line;
  }
  EXPECT_NE(all.find("\"sim_us\":7"), std::string::npos);
  EXPECT_NE(all.find("\"scenario\":\"email\""), std::string::npos);
}

TEST(ObsExportTest, ChromeTraceIsValidJsonDocument) {
  Tracer t;
  t.set_level(Level::kDebug);
  {
    const Span s =
        t.span(Level::kInfo, "legal", "evaluate", "scenario=pen_trap");
    t.instant(Level::kAudit, "court", "process_issued", "kind=warrant",
              SimTime::from_ms(3));
  }
  std::ostringstream os;
  write_chrome_trace(os, t.ring().drain());
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
  // Required trace_event fields are present.
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"legal\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("\"sim_us\":3000"), std::string::npos);
  EXPECT_EQ(t.ring().size(), 0u);
}

TEST(ObsExportTest, ChromeTraceOfNoEventsIsAnEmptyArray) {
  std::ostringstream os;
  write_chrome_trace(os, std::vector<TraceEvent>{});
  EXPECT_EQ(os.str(), "[]\n");
}

TEST(ObsExportTest, ChromeTraceSimTimebaseCarriesForward) {
  TraceEvent with_sim;
  with_sim.category = "evidence";
  with_sim.name = "custody";
  with_sim.sim_us = 1500;
  TraceEvent without_sim;
  without_sim.category = "legal";
  without_sim.name = "verdict";
  // The second event inherits ts=1500 from the last sim event.
  std::ostringstream os;
  write_chrome_trace(os, std::vector<TraceEvent>{with_sim, without_sim},
                     TimeBase::kSim);
  const std::string json = os.str();
  EXPECT_TRUE(json_balanced(json));
  const auto first = json.find("\"ts\":1500.000");
  ASSERT_NE(first, std::string::npos);
  EXPECT_NE(json.find("\"ts\":1500.000", first + 1), std::string::npos);
}

TEST(ObsExportTest, ChromeTraceWallTimebaseIgnoresSimTime) {
  TraceEvent ev;
  ev.category = "netsim";
  ev.name = "delivered";
  ev.wall_ns = 2'500'250;
  ev.sim_us = 9'000;
  std::ostringstream os;
  write_chrome_trace(os, std::vector<TraceEvent>{ev});
  EXPECT_NE(os.str().find("\"ts\":2500.250"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("\"sim_us\":9000"), std::string::npos) << os.str();
}

// The text after `key` in `line` up to the next ',' or '}'.
std::string field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + key.size();
  return line.substr(begin, line.find_first_of(",}", begin) - begin);
}

TEST(ObsExportTest, DrainedEventsFromFourThreadsExportAsOneOrderedArray) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 100;  // 5 events a round
  constexpr std::size_t kEvents = kThreads * kRounds * 5;
  // A thread may take over the shard of one that exited, so one shard
  // must hold every event for none to drop.
  Tracer t(/*ring_capacity=*/kEvents);
  t.set_level(Level::kDebug);
  std::atomic<int> started{0};
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k) {
    threads.emplace_back([&t, &started] {
      // Start together so the four streams interleave.
      started.fetch_add(1);
      while (started.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kRounds; ++i) {
        const Span outer = t.span(Level::kInfo, "test", "outer");
        t.instant(Level::kDebug, "test", "tick", "i=" + std::to_string(i));
        const Span inner = t.span(Level::kInfo, "test", "inner");
      }
    });
  }
  for (std::thread& th : threads) th.join();

  const std::vector<TraceEvent> events = t.ring().drain();
  ASSERT_EQ(events.size(), kEvents);
  std::ostringstream os;
  write_chrome_trace(os, events);
  const std::string json = os.str();
  ASSERT_TRUE(json_balanced(json));
  ASSERT_EQ(json.front(), '[');
  ASSERT_EQ(json.substr(json.size() - 2), "]\n");

  // One line per event after the process_name record, in drain order.
  std::istringstream lines(json);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("process_name"), std::string::npos);
  std::size_t n = 0;
  double last_ts = -1.0;
  std::map<std::string, std::vector<std::string>> open;  // tid -> span ids
  while (std::getline(lines, line)) {
    ASSERT_LT(n, events.size());
    const TraceEvent& ev = events[n];
    if (n > 0) {
      const TraceEvent& prev = events[n - 1];
      EXPECT_TRUE(prev.wall_ns < ev.wall_ns ||
                  (prev.wall_ns == ev.wall_ns && prev.seq < ev.seq))
          << "event " << n << " out of (wall_ns, seq) order";
    }
    const double ts = std::strtod(field(line, "\"ts\":").c_str(), nullptr);
    EXPECT_GE(ts, last_ts) << line;
    last_ts = ts;
    const std::string ph = field(line, "\"ph\":");
    const std::string tid = field(line, "\"tid\":");
    std::vector<std::string>& stack = open[tid];
    if (ph == "\"B\"") {
      stack.push_back(field(line, "\"id\":"));
    } else if (ph == "\"E\"") {
      // Each E closes the innermost span its thread has open.
      ASSERT_FALSE(stack.empty()) << line;
      EXPECT_EQ(stack.back(), field(line, "\"id\":")) << line;
      stack.pop_back();
    } else {
      EXPECT_EQ(ph, "\"i\"") << line;
    }
    ++n;
  }
  EXPECT_EQ(n, events.size());
  EXPECT_EQ(open.size(), std::size_t{kThreads});
  for (const auto& [tid, stack] : open) {
    EXPECT_TRUE(stack.empty()) << "thread " << tid << " left spans open";
  }
}

}  // namespace
}  // namespace lexfor::obs
