#include "obs/flight.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/tracer.h"

namespace lexfor::obs {
namespace {

// Every flight test drives the PROCESS-WIDE recorder and tracer, so it
// must leave both exactly as found: recorder disarmed, tracer level
// restored.  The fixture also owns a unique dump file per test.
class ObsFlightTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "lexfor_flight_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
    saved_level_ = tracer().level();
  }

  void TearDown() override {
    flight_recorder().disarm();
    tracer().set_level(saved_level_);
    std::remove(path_.c_str());
  }

  [[nodiscard]] std::vector<std::string> dump_lines() const {
    std::ifstream is(path_);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(is, line)) lines.push_back(line);
    return lines;
  }

  std::string path_;
  Level saved_level_ = Level::kOff;
};

TEST_F(ObsFlightTest, DumpIsRefusedWhileDisarmed) {
  flight_recorder().disarm();
  EXPECT_FALSE(dump_flight_record("nobody-listening"));
  EXPECT_TRUE(dump_lines().empty());
}

TEST_F(ObsFlightTest, DumpWritesHeaderEventsAndMetricsSnapshot) {
  tracer().set_level(Level::kDebug);
  tracer().instant(Level::kInfo, "flight", "before-dump", "k=v");
  tracer().instant(Level::kDebug, "flight", "second");

  FlightRecorderConfig cfg;
  cfg.path = path_;
  flight_recorder().configure(cfg);
  ASSERT_TRUE(flight_recorder().armed());
  EXPECT_EQ(flight_recorder().path(), path_);
  ASSERT_TRUE(dump_flight_record("unit-test"));

  const auto lines = dump_lines();
  ASSERT_GE(lines.size(), 3u);
  EXPECT_NE(lines.front().find("\"type\":\"flight\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"reason\":\"unit-test\""),
            std::string::npos);
  EXPECT_NE(lines.back().find("\"type\":\"metrics\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"snapshot\":{"), std::string::npos);
  // The two traced events appear as event lines, in order.
  std::size_t events = 0;
  bool saw_first = false;
  for (const std::string& line : lines) {
    if (line.find("\"type\":\"event\"") == std::string::npos) continue;
    ++events;
    if (line.find("before-dump") != std::string::npos) saw_first = true;
    if (line.find("\"second\"") != std::string::npos) {
      EXPECT_TRUE(saw_first) << "events out of order in dump";
    }
  }
  EXPECT_GE(events, 2u);
}

TEST_F(ObsFlightTest, ErrorLevelEventTriggersAutomaticDump) {
  FlightRecorderConfig cfg;
  cfg.path = path_;
  flight_recorder().configure(cfg);
  const std::uint64_t dumps_before = flight_recorder().dumps();

  tracer().set_level(Level::kError);
  tracer().instant(Level::kError, "flight", "boom", "what=testing");

  EXPECT_EQ(flight_recorder().dumps(), dumps_before + 1);
  const auto lines = dump_lines();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find("\"reason\":\"error-event\""),
            std::string::npos);
  // The dump contains the error event itself.
  bool saw_error = false;
  for (const std::string& line : lines) {
    if (line.find("\"boom\"") != std::string::npos) saw_error = true;
  }
  EXPECT_TRUE(saw_error);
}

// The dump an error triggers reads the ring of the tracer that accepted
// it, so an error on a private tracer is in its own dump.
TEST_F(ObsFlightTest, ErrorOnAPrivateTracerIsInTheDumpItTriggers) {
  FlightRecorderConfig cfg;
  cfg.path = path_;
  flight_recorder().configure(cfg);
  const std::uint64_t dumps_before = flight_recorder().dumps();

  Tracer own;
  own.set_level(Level::kError);
  own.instant(Level::kError, "flight", "private-boom", "what=testing");

  EXPECT_EQ(flight_recorder().dumps(), dumps_before + 1);
  const auto lines = dump_lines();
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.front().find("\"reason\":\"error-event\""),
            std::string::npos);
  EXPECT_NE(lines.front().find("\"events\":1"), std::string::npos);
  bool saw_error = false;
  for (const std::string& line : lines) {
    if (line.find("\"type\":\"event\"") != std::string::npos &&
        line.find("\"private-boom\"") != std::string::npos) {
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
}

TEST_F(ObsFlightTest, ErrorEventsBelowLevelFilterDoNotDump) {
  FlightRecorderConfig cfg;
  cfg.path = path_;
  flight_recorder().configure(cfg);
  const std::uint64_t dumps_before = flight_recorder().dumps();
  tracer().set_level(Level::kOff);  // filter rejects even errors
  tracer().instant(Level::kError, "flight", "silenced");
  EXPECT_EQ(flight_recorder().dumps(), dumps_before);
}

TEST_F(ObsFlightTest, LastEventsLimitKeepsOnlyTheNewest) {
  tracer().set_level(Level::kDebug);
  for (int i = 0; i < 6; ++i) {
    tracer().instant(Level::kInfo, "flight",
                     "evt-" + std::to_string(i));
  }
  FlightRecorderConfig cfg;
  cfg.path = path_;
  cfg.last_events = 2;
  flight_recorder().configure(cfg);
  ASSERT_TRUE(dump_flight_record("limited"));

  std::size_t events = 0;
  bool saw_newest = false;
  for (const std::string& line : dump_lines()) {
    if (line.find("\"type\":\"event\"") == std::string::npos) continue;
    ++events;
    if (line.find("evt-5") != std::string::npos) saw_newest = true;
    EXPECT_EQ(line.find("evt-0"), std::string::npos)
        << "oldest event leaked into a last-2 dump";
  }
  EXPECT_EQ(events, 2u);
  EXPECT_TRUE(saw_newest);
}

TEST_F(ObsFlightTest, RepeatedDumpsAppendToOneFile) {
  FlightRecorderConfig cfg;
  cfg.path = path_;
  flight_recorder().configure(cfg);
  ASSERT_TRUE(dump_flight_record("first"));
  ASSERT_TRUE(dump_flight_record("second"));
  std::size_t headers = 0;
  for (const std::string& line : dump_lines()) {
    if (line.find("\"type\":\"flight\"") != std::string::npos) ++headers;
  }
  EXPECT_EQ(headers, 2u);
}

}  // namespace
}  // namespace lexfor::obs
