#include "lint/linter.h"

#include <gtest/gtest.h>

#include "legal/scenario_library.h"
#include "lint/example_plans.h"
#include "lint/passes.h"

namespace lexfor::lint {
namespace {

SimTime day(double d) { return SimTime::from_sec(d * 24 * 3600.0); }
SimDuration days(double d) { return SimDuration::from_sec(d * 24 * 3600.0); }

legal::Scenario wiretap_scenario() {
  return legal::Scenario{}
      .named("full-content interception")
      .by(legal::ActorKind::kLawEnforcement)
      .acquiring(legal::DataKind::kContent)
      .located(legal::DataState::kInTransit)
      .when(legal::Timing::kRealTime);
}

legal::Scenario examination_scenario() {
  return legal::Scenario{}
      .named("examination of held data")
      .by(legal::ActorKind::kLawEnforcement)
      .acquiring(legal::DataKind::kContent)
      .located(legal::DataState::kOnDevice)
      .when(legal::Timing::kStored)
      .previously_acquired();
}

// Facts strong enough for any non-Title-III instrument.
void add_probable_cause(InvestigationPlan& plan) {
  plan.with_fact({legal::FactKind::kIpAddressLinked, 1.0, "IP linked"})
      .with_fact(
          {legal::FactKind::kSubscriberIdentified, 1.0, "subscriber found"});
}

TEST(PlanLinterTest, CleanPlanProducesNoDiagnostics) {
  const LintReport report = PlanLinter{}.lint(clean_quickstart_plan());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.error_count, 0u);
  EXPECT_EQ(report.warning_count, 0u);
  EXPECT_EQ(report.note_count, 0u);
  EXPECT_TRUE(report.diagnostics.empty());
}

TEST(PlanLinterTest, MissingProcessFlagsWarrantlessWiretap) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.plan_acquisition("warrantless tap", wiretap_scenario(), day(0));

  const LintReport report = PlanLinter{}.lint(plan);
  ASSERT_EQ(report.count(kRuleMissingProcess), 1u);
  const Diagnostic& d = *report.first(kRuleMissingProcess);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("wiretap (Title III) order"), std::string::npos);
  EXPECT_FALSE(d.citations.empty());
}

TEST(PlanLinterTest, MissingProcessAcceptsStrongerInstrument) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  add_probable_cause(plan);
  // A Title III order where only a court order is needed: lawful.
  const PlanStepId app = plan.plan_application(
      "apply", legal::ProcessKind::kWiretapOrder, day(0));
  plan.plan_acquisition("headers",
                        legal::Scenario{}
                            .by(legal::ActorKind::kLawEnforcement)
                            .acquiring(legal::DataKind::kAddressing)
                            .located(legal::DataState::kInTransit)
                            .when(legal::Timing::kRealTime),
                        day(1))
      .using_authority(app);

  const LintReport report = PlanLinter{}.lint(plan);
  EXPECT_EQ(report.count(kRuleMissingProcess), 0u);
}

TEST(PlanLinterTest, PoisonousTreePropagatesAndIndependentSourceSaves) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  const PlanStepId tap =
      plan.plan_acquisition("tap", wiretap_scenario(), day(0));
  const PlanStepId derived = plan.plan_acquisition(
      "derived", examination_scenario(), day(1)).derived({tap});
  // Derived from the tainted chain but cleansed by inevitable discovery.
  plan.plan_acquisition("saved", examination_scenario(), day(2))
      .derived({derived})
      .inevitable_discovery();

  const LintReport report = PlanLinter{}.lint(plan);
  // The tap is missing-process; only 'derived' is a poisonous-tree error;
  // 'saved' is a note.
  ASSERT_EQ(report.count(kRulePoisonousTree), 2u);
  const Diagnostic* error = report.first(kRulePoisonousTree);
  ASSERT_NE(error, nullptr);
  EXPECT_EQ(error->severity, Severity::kError);
  EXPECT_EQ(error->step_name, "derived");

  std::size_t notes = 0;
  for (const auto& d : report.diagnostics) {
    if (d.rule == kRulePoisonousTree && d.severity == Severity::kNote) {
      ++notes;
      EXPECT_EQ(d.step_name, "saved");
    }
  }
  EXPECT_EQ(notes, 1u);
}

TEST(PlanLinterTest, LawfulParentKeepsDerivedStepAdmissible) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  const PlanStepId tap =
      plan.plan_acquisition("tap", wiretap_scenario(), day(0));
  const PlanStepId lawful =
      plan.plan_acquisition("lawful", examination_scenario(), day(0));
  plan.plan_acquisition("mixed", examination_scenario(), day(1))
      .derived({tap, lawful});

  const LintReport report = PlanLinter{}.lint(plan);
  // One lawful source in: no poisonous-tree diagnostic at all.
  EXPECT_EQ(report.count(kRulePoisonousTree), 0u);
}

TEST(PlanLinterTest, ExpiredAuthorityFlagsUseOutsideWindow) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  add_probable_cause(plan);
  const PlanStepId app = plan.plan_application(
      "apply", legal::ProcessKind::kCourtOrder, day(0), days(14));
  plan.plan_acquisition("late pull",
                        legal::Scenario{}
                            .by(legal::ActorKind::kLawEnforcement)
                            .acquiring(legal::DataKind::kTransactionalRecords)
                            .located(legal::DataState::kStoredAtProvider)
                            .when(legal::Timing::kStored)
                            .at_provider(legal::ProviderClass::kEcs),
                        day(20))
      .using_authority(app);

  const LintReport report = PlanLinter{}.lint(plan);
  ASSERT_EQ(report.count(kRuleExpiredAuthority), 1u);
  EXPECT_EQ(report.first(kRuleExpiredAuthority)->severity, Severity::kError);
  // Use before the application is filed is equally outside the window.
  InvestigationPlan early("p2", legal::CrimeCategory::kGeneral);
  add_probable_cause(early);
  const PlanStepId later_app = early.plan_application(
      "apply", legal::ProcessKind::kCourtOrder, day(5));
  early.plan_acquisition("too early",
                         legal::Scenario{}
                             .by(legal::ActorKind::kLawEnforcement)
                             .acquiring(legal::DataKind::kAddressing)
                             .located(legal::DataState::kInTransit)
                             .when(legal::Timing::kRealTime),
                         day(1))
      .using_authority(later_app);
  EXPECT_EQ(PlanLinter{}.lint(early).count(kRuleExpiredAuthority), 1u);
}

TEST(PlanLinterTest, StandingMismatchWarnsOnThirdPartyViolation) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.charging("Mallory");
  plan.plan_acquisition("tap Chen's line", wiretap_scenario(), day(0))
      .aggrieves("Chen");

  const LintReport report = PlanLinter{}.lint(plan);
  ASSERT_EQ(report.count(kRuleStandingMismatch), 1u);
  const Diagnostic& d = *report.first(kRuleStandingMismatch);
  EXPECT_EQ(d.severity, Severity::kWarning);
  EXPECT_NE(d.message.find("Chen"), std::string::npos);

  // Same violation against the charged suspect: no mismatch.
  InvestigationPlan own("p2", legal::CrimeCategory::kGeneral);
  own.charging("Mallory");
  own.plan_acquisition("tap Mallory", wiretap_scenario(), day(0))
      .aggrieves("Mallory");
  EXPECT_EQ(PlanLinter{}.lint(own).count(kRuleStandingMismatch), 0u);
}

TEST(PlanLinterTest, UnreachableStepFlagsForwardAndDanglingEdges) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  const PlanStepId late =
      plan.plan_acquisition("late", examination_scenario(), day(10));
  plan.plan_acquisition("early", examination_scenario(), day(1))
      .derived({late});
  plan.plan_acquisition("dangling", examination_scenario(), day(2))
      .derived({PlanStepId{999}});

  const LintReport report = PlanLinter{}.lint(plan);
  EXPECT_EQ(report.count(kRuleUnreachableStep), 2u);
  for (const auto& d : report.diagnostics) {
    if (d.rule == kRuleUnreachableStep) {
      EXPECT_EQ(d.severity, Severity::kError);
    }
  }
}

TEST(PlanLinterTest, ProofGapFlagsPrematureApplication) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.with_fact({legal::FactKind::kAnonymousTip, 0.0, "tip"});
  plan.plan_application("premature warrant",
                        legal::ProcessKind::kSearchWarrant, day(0));

  const LintReport report = PlanLinter{}.lint(plan);
  ASSERT_EQ(report.count(kRuleProofGap), 1u);
  EXPECT_EQ(report.first(kRuleProofGap)->severity, Severity::kError);
}

TEST(PlanLinterTest, ProofGapCountsFactsFromEarlierLawfulSteps) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.with_fact({legal::FactKind::kAnonymousTip, 0.0, "tip"});
  // A lawful public observation yields the facts the warrant needs.
  plan.plan_acquisition("public observation",
                        legal::Scenario{}
                            .by(legal::ActorKind::kLawEnforcement)
                            .acquiring(legal::DataKind::kAddressing)
                            .located(legal::DataState::kPublicVenue)
                            .when(legal::Timing::kRealTime)
                            .exposed_publicly(),
                        day(0))
      .yields({legal::FactKind::kIpAddressLinked, 0.0, "IP linked"})
      .yields({legal::FactKind::kSubscriberIdentified, 0.0, "subscriber"});
  plan.plan_application("warrant", legal::ProcessKind::kSearchWarrant, day(1));

  EXPECT_EQ(PlanLinter{}.lint(plan).count(kRuleProofGap), 0u);

  // The same facts yielded by a tainted step do not count.
  InvestigationPlan fruit("p2", legal::CrimeCategory::kGeneral);
  fruit.with_fact({legal::FactKind::kAnonymousTip, 0.0, "tip"});
  fruit.plan_acquisition("tainted tap", wiretap_scenario(), day(0))
      .yields({legal::FactKind::kIpAddressLinked, 0.0, "IP linked"})
      .yields({legal::FactKind::kSubscriberIdentified, 0.0, "subscriber"});
  fruit.plan_application("warrant", legal::ProcessKind::kSearchWarrant,
                         day(1));
  EXPECT_EQ(PlanLinter{}.lint(fruit).count(kRuleProofGap), 1u);
}

TEST(PlanLinterTest, DefectiveFixtureSeedsAllSixRules) {
  const LintReport report = PlanLinter{}.lint(defective_wiretap_plan());
  EXPECT_TRUE(report.has(kRuleMissingProcess));
  EXPECT_TRUE(report.has(kRulePoisonousTree));
  EXPECT_TRUE(report.has(kRuleExpiredAuthority));
  EXPECT_TRUE(report.has(kRuleStandingMismatch));
  EXPECT_TRUE(report.has(kRuleUnreachableStep));
  EXPECT_TRUE(report.has(kRuleProofGap));
  EXPECT_EQ(report.error_count, 6u);
  EXPECT_EQ(report.warning_count, 1u);
  EXPECT_EQ(report.note_count, 1u);
  EXPECT_FALSE(report.clean());
}

TEST(PlanLinterTest, DiagnosticsOrderedByStepThenSeverity) {
  const LintReport report = PlanLinter{}.lint(defective_wiretap_plan());
  ASSERT_GE(report.diagnostics.size(), 2u);

  // Step order is the scheduled order; within a step, errors precede
  // warnings precede notes.
  const auto& plan_steps = defective_wiretap_plan();
  std::vector<PlanStepId> scheduled;
  for (const auto& s : plan_steps.steps()) scheduled.push_back(s.id);

  auto position = [&](PlanStepId id) {
    // The fixture schedules steps in insertion order except the final
    // report/correlation pair; recompute by scheduled_at.
    const PlanStep* step = plan_steps.find(id);
    return step == nullptr ? SimTime{} : step->scheduled_at;
  };
  for (std::size_t i = 1; i < report.diagnostics.size(); ++i) {
    const auto& prev = report.diagnostics[i - 1];
    const auto& cur = report.diagnostics[i];
    const SimTime tp = position(prev.step);
    const SimTime tc = position(cur.step);
    EXPECT_LE(tp.us, tc.us);
    if (prev.step == cur.step) {
      EXPECT_GE(static_cast<int>(prev.severity),
                static_cast<int>(cur.severity));
    }
  }
}

TEST(PlanContextTest, FactsBeforeExcludesFactsAtExactlyT) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.with_fact({legal::FactKind::kAnonymousTip, 0.0, "tip"});
  plan.plan_acquisition("public observation",
                        legal::Scenario{}
                            .by(legal::ActorKind::kLawEnforcement)
                            .acquiring(legal::DataKind::kAddressing)
                            .located(legal::DataState::kPublicVenue)
                            .when(legal::Timing::kRealTime)
                            .exposed_publicly(),
                        day(2))
      .yields({legal::FactKind::kIpAddressLinked, 0.0, "IP linked"});

  const legal::BatchEvaluator engine;
  const PlanContext ctx(plan, engine);

  // Strictly-before semantics: a step scheduled AT t has not yielded
  // yet; one microsecond later it has.
  EXPECT_EQ(ctx.facts_before(day(2)).size(), 1u);
  EXPECT_EQ(ctx.facts_before(SimTime{day(2).us + 1}).size(), 2u);
  // Initial facts are available from the beginning of time.
  const std::vector<legal::Fact> at_zero = ctx.facts_before(day(0));
  ASSERT_EQ(at_zero.size(), 1u);
  EXPECT_EQ(at_zero[0].kind, legal::FactKind::kAnonymousTip);
}

TEST(PlanContextTest, FactsBeforeIgnoresTaintedAndUnreachableYields) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.with_fact({legal::FactKind::kAnonymousTip, 0.0, "tip"});
  // Tainted: a warrantless wiretap's yields cannot support anything.
  plan.plan_acquisition("tainted tap", wiretap_scenario(), day(0))
      .yields({legal::FactKind::kIpAddressLinked, 0.0, "IP linked"});
  // Unreachable: derives from a step that does not exist.
  plan.plan_acquisition("dangling", examination_scenario(), day(1))
      .derived({PlanStepId{999}})
      .yields({legal::FactKind::kSubscriberIdentified, 0.0, "subscriber"});

  const legal::BatchEvaluator engine;
  const PlanContext ctx(plan, engine);

  const std::vector<legal::Fact> facts = ctx.facts_before(day(10));
  ASSERT_EQ(facts.size(), 1u);
  EXPECT_EQ(facts[0].kind, legal::FactKind::kAnonymousTip);
}

TEST(PlanLinterTest, CloudSubpoenaSceneFlagsMissingSubpoena) {
  // The new library scene flows through the linter like any hand-built
  // scenario: subscriber records without ANY instrument is an error.
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.plan_acquisition("subscriber records",
                        legal::library::cloud_storage_subscriber_subpoena(),
                        day(0));

  const LintReport report = PlanLinter{}.lint(plan);
  ASSERT_EQ(report.count(kRuleMissingProcess), 1u);
  const Diagnostic& d = *report.first(kRuleMissingProcess);
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.message.find("subpoena"), std::string::npos);
}

TEST(PlanLinterTest, CloudSubpoenaSceneCleanWithSubpoenaApplication) {
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  add_probable_cause(plan);
  const PlanStepId app =
      plan.plan_application("subpoena", legal::ProcessKind::kSubpoena, day(0));
  plan.plan_acquisition("subscriber records",
                        legal::library::cloud_storage_subscriber_subpoena(),
                        day(1))
      .using_authority(app);

  EXPECT_EQ(PlanLinter{}.lint(plan).count(kRuleMissingProcess), 0u);
}

TEST(PlanLinterTest, FederalConsentTapSceneNeedsNoProcess) {
  // One-party consent excuses the pen/trap order, so an instrument-free
  // acquisition of this scene lints clean on the process rule...
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.plan_acquisition("consented tap",
                        legal::library::isp_tap_with_consent_federal(), day(0));
  EXPECT_EQ(PlanLinter{}.lint(plan).count(kRuleMissingProcess), 0u);
}

TEST(PlanLinterTest, CrossBorderTapSceneFlagsMissingCourtOrder) {
  // ...but the identical tap under an all-party regime does not.
  InvestigationPlan plan("p", legal::CrimeCategory::kGeneral);
  plan.plan_acquisition("cross-border tap",
                        legal::library::isp_tap_cross_border_all_party(),
                        day(0));

  const LintReport report = PlanLinter{}.lint(plan);
  ASSERT_EQ(report.count(kRuleMissingProcess), 1u);
  EXPECT_NE(report.first(kRuleMissingProcess)->message.find("court order"),
            std::string::npos);
}

}  // namespace
}  // namespace lexfor::lint
