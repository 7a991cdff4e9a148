#include "legal/jurisdiction.h"

#include <gtest/gtest.h>

#include "legal/engine.h"

namespace lexfor::legal {
namespace {

TEST(JurisdictionTest, FederalBaselineIsOneParty) {
  EXPECT_EQ(consent_regime("US"), ConsentRegime::kOneParty);
}

TEST(JurisdictionTest, ClassicAllPartyStates) {
  for (const char* code : {"CA", "FL", "IL", "MD", "MA", "PA", "WA"}) {
    EXPECT_EQ(consent_regime(code), ConsentRegime::kAllParty) << code;
  }
}

TEST(JurisdictionTest, OnePartyStates) {
  for (const char* code : {"NY", "TX", "VA"}) {
    EXPECT_EQ(consent_regime(code), ConsentRegime::kOneParty) << code;
  }
}

TEST(JurisdictionTest, UnknownCodeFallsBackToFederal) {
  EXPECT_EQ(consent_regime("ZZ"), ConsentRegime::kOneParty);
  EXPECT_FALSE(find_jurisdiction("ZZ").has_value());
}

TEST(JurisdictionTest, LookupReturnsFullRecord) {
  const auto ca = find_jurisdiction("CA");
  ASSERT_TRUE(ca.has_value());
  EXPECT_EQ(ca->name, "California");
  EXPECT_EQ(ca->regime, ConsentRegime::kAllParty);
}

TEST(JurisdictionTest, CodesAreUnique) {
  const auto& db = jurisdictions();
  for (std::size_t i = 0; i < db.size(); ++i) {
    for (std::size_t j = i + 1; j < db.size(); ++j) {
      EXPECT_NE(db[i].code, db[j].code);
    }
  }
}

TEST(JurisdictionTest, IndexIsThePositionInTheTable) {
  const auto& db = jurisdictions();
  ASSERT_EQ(db.size(), kJurisdictionCount);
  for (std::size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(jurisdiction_index(db[i].code), i) << db[i].code;
  }
  for (const char* code : {"ZZ", "XX", "", "ca", "USA", "U"}) {
    EXPECT_EQ(jurisdiction_index(code), kUnlistedJurisdiction) << code;
  }
}

// The doctrinal consequence: an undercover one-party-consent recording
// is process-free federally but not in an all-party state.
TEST(JurisdictionEngineTest, OnePartyConsentWorksFederally) {
  ComplianceEngine engine;
  const auto d = engine.evaluate(Scenario{}
                                     .named("undercover agent records a call")
                                     .acquiring(DataKind::kContent)
                                     .located(DataState::kInTransit)
                                     .when(Timing::kRealTime)
                                     .with_consent(ConsentKind::kOnePartyToComm)
                                     .in_jurisdiction("US"));
  EXPECT_FALSE(d.needs_process) << d.report();
}

TEST(JurisdictionEngineTest, OnePartyConsentFailsInAllPartyState) {
  ComplianceEngine engine;
  const auto d = engine.evaluate(Scenario{}
                                     .named("same recording in California")
                                     .acquiring(DataKind::kContent)
                                     .located(DataState::kInTransit)
                                     .when(Timing::kRealTime)
                                     .with_consent(ConsentKind::kOnePartyToComm)
                                     .in_jurisdiction("CA"));
  EXPECT_TRUE(d.needs_process) << d.report();
  EXPECT_EQ(d.required_process, ProcessKind::kWiretapOrder);
}

TEST(JurisdictionEngineTest, AllPartyConsentWorksEverywhere) {
  ComplianceEngine engine;
  for (const char* code : {"US", "CA", "MA"}) {
    const auto d = engine.evaluate(
        Scenario{}
            .acquiring(DataKind::kContent)
            .located(DataState::kInTransit)
            .when(Timing::kRealTime)
            .with_consent(ConsentKind::kAllPartiesToComm)
            .in_jurisdiction(code));
    EXPECT_FALSE(d.needs_process) << code << "\n" << d.report();
  }
}

}  // namespace
}  // namespace lexfor::legal
