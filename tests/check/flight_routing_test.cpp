#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "check/differential.h"
#include "obs/flight.h"

namespace lexfor::check {
namespace {

// check::report_to_flight bridges fuzz violations into the obs flight
// recorder; a real violation cannot be forced (the oracles agree), so
// these tests route synthetic ones.
TEST(CheckFlightRoutingTest, DisarmedRecorderIgnoresViolations) {
  obs::flight_recorder().disarm();
  const std::uint64_t before = obs::flight_recorder().dumps();
  report_to_flight(Violation{"synthetic-rule", "detail", "row", 1, 2});
  EXPECT_EQ(obs::flight_recorder().dumps(), before);
}

TEST(CheckFlightRoutingTest, ArmedRecorderDumpsWithRuleInReason) {
  const std::string path =
      ::testing::TempDir() + "lexfor_check_flight.jsonl";
  std::remove(path.c_str());
  obs::FlightRecorderConfig cfg;
  cfg.path = path;
  obs::flight_recorder().configure(cfg);
  const std::uint64_t before = obs::flight_recorder().dumps();

  report_to_flight(Violation{"lint-agreement", "synthetic disagreement",
                             "scene-row", 7, 3});
  obs::flight_recorder().disarm();

#if LEXFOR_OBS
  EXPECT_EQ(obs::flight_recorder().dumps(), before + 1);
  std::ifstream is(path);
  std::string first_line;
  ASSERT_TRUE(std::getline(is, first_line));
  EXPECT_NE(
      first_line.find("\"reason\":\"check-violation:lint-agreement\""),
      std::string::npos);
#else
  EXPECT_EQ(obs::flight_recorder().dumps(), before);
#endif
  std::remove(path.c_str());
}

}  // namespace
}  // namespace lexfor::check
