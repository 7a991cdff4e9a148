// The paper's §IV.B "situation one" as one continuous case, asserting
// the interlocking behaviour of court, engine, traceback experiment,
// evidence locker and case report.

#include <gtest/gtest.h>

#include "evidence/locker.h"
#include "investigation/report.h"
#include "tornet/traceback.h"

namespace lexfor {
namespace {

using investigation::Court;
using investigation::Investigation;

TEST(FullCaseTest, WatermarkTracebackCaseEndToEnd) {
  Court court;
  Investigation inv(CaseId{100}, "hidden-service traceback",
                    legal::CrimeCategory::kChildExploitation, court);

  // 1. Facts from the seized server.
  inv.add_fact({legal::FactKind::kContrabandObserved, 2.0,
                "contraband hosted on the seized server"});
  inv.add_fact({legal::FactKind::kAccountLinked, 2.0,
                "target account fetches through an anonymity network"});
  ASSERT_EQ(inv.current_standard().standard,
            legal::StandardOfProof::kProbableCause);

  // 2. The collection step needs a court order (engine), and the court
  //    grants one on these facts.
  const auto determination =
      legal::ComplianceEngine{}.evaluate(tornet::collection_scenario());
  ASSERT_EQ(determination.required_process, legal::ProcessKind::kCourtOrder);

  legal::ProcessScope scope;
  scope.data_kinds = {legal::DataKind::kAddressing};
  scope.locations = {"suspect-isp"};
  scope.crime = "receipt of child pornography";
  const auto order =
      inv.apply_for(legal::ProcessKind::kCourtOrder, scope, SimTime::zero());
  ASSERT_TRUE(order.ok()) << order.status();

  // 3. Run the experiment.
  tornet::TracebackConfig cfg;
  cfg.pn_degree = 9;
  cfg.num_decoys = 5;
  cfg.seed = 777;
  const auto result = tornet::run_streaming_traceback(cfg).value();
  ASSERT_TRUE(result.suspect_detected);
  ASSERT_EQ(result.decoys_flagged, 0u);

  // 4. The rate series goes into the evidence locker, custody-chained.
  evidence::EvidenceLocker locker(to_bytes("case-100-key"));
  Bytes series;
  for (const auto& flow : result.flows) {
    series.push_back(flow.detection.detected ? 1 : 0);
  }
  const auto item = locker.deposit("despread verdicts per candidate flow",
                                   series, "Agent T", SimTime::from_sec(10));
  ASSERT_TRUE(locker.all_verify());
  EXPECT_EQ(locker.find(item)->chain().size(), 1u);

  // 5. Record the acquisition; audit; report.
  const auto acq = inv.acquire(tornet::collection_scenario(),
                               "per-flow rate collection at the ISP",
                               inv.authority(order.value()));
  EXPECT_TRUE(acq.lawful);

  const auto audit = inv.admissibility_audit();
  EXPECT_EQ(audit.suppressed_count, 0u);

  const auto report = investigation::case_report(inv);
  EXPECT_NE(report.find("hidden-service traceback"), std::string::npos);
  EXPECT_NE(report.find("GRANTED"), std::string::npos);
  EXPECT_NE(report.find("per-flow rate collection"), std::string::npos);
  EXPECT_NE(report.find("admissible: 1"), std::string::npos);
}

TEST(FullCaseTest, SameCaseWithoutTheOrderCollapsesAtAudit) {
  Court court;
  Investigation inv(CaseId{101}, "the shortcut that fails",
                    legal::CrimeCategory::kChildExploitation, court);

  // Skip the court entirely; collect anyway; derive a search from it.
  const auto rates = inv.acquire(tornet::collection_scenario(),
                                 "rate collection, no process",
                                 legal::GrantedAuthority{});
  EXPECT_FALSE(rates.lawful);

  inv.add_fact({legal::FactKind::kIpAddressLinked, 0.0,
                "suspect identified from the (unlawful) collection"});
  inv.add_fact({legal::FactKind::kSubscriberIdentified, 0.0, "ISP return"});
  legal::ProcessScope scope;
  scope.locations = {"suspect-home"};
  scope.crime = "receipt of child pornography";
  const auto warrant = inv.apply_for(legal::ProcessKind::kSearchWarrant, scope,
                                     SimTime::from_sec(100));
  ASSERT_TRUE(warrant.ok());  // the court doesn't know the taint...

  const auto device = inv.acquire(
      legal::Scenario{}
          .acquiring(legal::DataKind::kContent)
          .located(legal::DataState::kOnDevice)
          .when(legal::Timing::kStored),
      "home search derived from tainted lead",
      inv.authority(warrant.value()), {rates.evidence});

  // ...but the suppression audit does: the derived search falls as fruit.
  const auto audit = inv.admissibility_audit();
  EXPECT_TRUE(audit.is_suppressed(rates.evidence));
  EXPECT_TRUE(audit.is_suppressed(device.evidence));
  EXPECT_EQ(audit.suppressed_count, 2u);
}

}  // namespace
}  // namespace lexfor
