// End-to-end checks that the instrumented library modules actually emit
// trace events and metrics through the process-wide tracer/registry when
// the runtime level is raised.  gtest_discover_tests runs each test in
// its own process, so flipping the global level here cannot leak into
// other tests.  Built with LEXFOR_OBS=OFF, the same calls check the
// kill switch instead: no event and no counter moves.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "evidence/custody.h"
#include "legal/engine.h"
#include "obs/obs.h"

namespace lexfor {
namespace {

// Every counter's value, by name.
std::vector<std::pair<std::string, std::uint64_t>> counter_values() {
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& c : obs::metrics().counter_samples()) {
    out.emplace_back(c.name, c.value);
  }
  return out;
}

std::vector<obs::TraceEvent> events_named(std::string_view category,
                                          std::string_view name) {
  std::vector<obs::TraceEvent> out;
  for (const auto& ev : obs::tracer().ring().snapshot()) {
    if (ev.category == category && ev.name == name) out.push_back(ev);
  }
  return out;
}

TEST(ObsInstrumentationTest, EngineEvaluateEmitsAuditVerdict) {
  obs::tracer().set_level(obs::Level::kAudit);
  obs::tracer().ring().clear();
  const std::uint64_t evals_before =
      obs::metrics().counter("legal.evaluations").value();
  [[maybe_unused]] const auto counters_before = counter_values();

  legal::ComplianceEngine engine;
  const auto d = engine.evaluate(legal::Scenario{}
                                     .named("obs wiretap probe")
                                     .acquiring(legal::DataKind::kContent)
                                     .located(legal::DataState::kInTransit)
                                     .when(legal::Timing::kRealTime));
  ASSERT_TRUE(d.needs_process);

#if LEXFOR_OBS
  const auto verdicts = events_named("legal", "verdict");
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_EQ(verdicts[0].level, obs::Level::kAudit);
  EXPECT_NE(verdicts[0].args.find("scenario=obs wiretap probe"),
            std::string::npos);
  EXPECT_EQ(obs::metrics().counter("legal.evaluations").value(),
            evals_before + 1);
  // kAudit admits only legally-meaningful events: the kInfo evaluate
  // span must have been filtered out.
  EXPECT_TRUE(events_named("legal", "evaluate").empty());
#else
  EXPECT_TRUE(events_named("legal", "verdict").empty());
  EXPECT_EQ(obs::tracer().ring().size(), 0u);
  EXPECT_EQ(obs::metrics().counter("legal.evaluations").value(), evals_before);
  EXPECT_EQ(counter_values(), counters_before);
#endif
}

TEST(ObsInstrumentationTest, CustodyRecordsBecomeAuditEvents) {
  obs::tracer().set_level(obs::Level::kAudit);
  obs::tracer().ring().clear();
  [[maybe_unused]] const auto counters_before = counter_values();

  const Bytes case_key = to_bytes("obs-case-key");
  evidence::EvidenceItem item(EvidenceId{1}, "seized laptop image",
                              to_bytes("disk contents"), "agent-smith",
                              SimTime::from_ms(10), case_key);
  item.record(evidence::CustodyAction::kImaged, "lab-tech", "dd image",
              SimTime::from_ms(20), case_key);
  item.record(evidence::CustodyAction::kExamined, "examiner", "keyword scan",
              SimTime::from_ms(30), case_key);

#if LEXFOR_OBS
  // Seizure + two transfers = three chain entries, three audit events.
  const auto custody = events_named("evidence", "custody");
  ASSERT_EQ(custody.size(), 3u);
  EXPECT_EQ(custody[0].sim_us, 10'000);
  EXPECT_NE(custody[1].args.find("action=imaged"), std::string::npos);
  EXPECT_NE(custody[2].args.find("custodian=examiner"), std::string::npos);
#else
  EXPECT_TRUE(events_named("evidence", "custody").empty());
  EXPECT_EQ(obs::tracer().ring().size(), 0u);
  EXPECT_EQ(counter_values(), counters_before);
#endif
  EXPECT_EQ(item.chain().size(), 3u);
}

TEST(ObsInstrumentationTest, OffLevelSuppressesInstrumentationEvents) {
  obs::tracer().set_level(obs::Level::kOff);
  obs::tracer().ring().clear();

  legal::ComplianceEngine engine;
  (void)engine.evaluate(legal::Scenario{}
                            .acquiring(legal::DataKind::kContent)
                            .located(legal::DataState::kOnDevice));
  EXPECT_EQ(obs::tracer().ring().size(), 0u);
}

}  // namespace
}  // namespace lexfor
