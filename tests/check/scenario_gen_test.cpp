#include "check/scenario_gen.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "legal/batch.h"

namespace lexfor::check {
namespace {

// Per fact, in LEXFOR_FACT_LIST order and then the jurisdiction:
// whether `a` and `b` differ in it.
std::vector<bool> fact_diff(const legal::Scenario& a,
                            const legal::Scenario& b) {
  std::vector<bool> diff;
#define LEXFOR_DIFF(member, ...) diff.push_back(a.member != b.member);
  LEXFOR_FACT_LIST(LEXFOR_DIFF, LEXFOR_DIFF)
#undef LEXFOR_DIFF
  diff.push_back(a.jurisdiction != b.jurisdiction);
  return diff;
}

TEST(ScenarioGenTest, SameStreamReproducesTheSameScenario) {
  Rng a = Rng::sub_stream(42, 7);
  Rng b = Rng::sub_stream(42, 7);
  const legal::Scenario sa = ScenarioGen(a).generate("s");
  const legal::Scenario sb = ScenarioGen(b).generate("s");
  EXPECT_EQ(describe_scenario(sa), describe_scenario(sb));
  EXPECT_EQ(legal::fingerprint(sa), legal::fingerprint(sb));
}

TEST(ScenarioGenTest, DistinctStreamsDiverge) {
  // Not guaranteed for any single pair, but across 32 streams at least
  // two must differ unless the generator is broken.
  Rng base = Rng::sub_stream(42, 0);
  const std::string first = describe_scenario(ScenarioGen(base).generate("s"));
  bool diverged = false;
  for (std::uint64_t stream = 1; stream < 32 && !diverged; ++stream) {
    Rng rng = Rng::sub_stream(42, stream);
    diverged = describe_scenario(ScenarioGen(rng).generate("s")) != first;
  }
  EXPECT_TRUE(diverged);
}

TEST(ScenarioGenTest, MutateReportsWhetherTheScenarioChanged) {
  Rng rng = Rng::sub_stream(1, 1);
  ScenarioGen gen(rng);
  legal::Scenario s = gen.generate("walk");
  for (int step = 0; step < 200; ++step) {
    const std::string before = describe_scenario(s);
    const legal::ScenarioFingerprint fp = legal::fingerprint(s);
    const bool changed = gen.mutate(s);
    if (changed) {
      EXPECT_NE(legal::fingerprint(s), fp) << "step " << step;
    } else {
      EXPECT_EQ(describe_scenario(s), before) << "step " << step;
    }
  }
}

TEST(ScenarioGenTest, MutateChangesOneFieldAndReachesEveryFact) {
  // A step re-samples one fact of LEXFOR_FACT_LIST or the jurisdiction:
  // at most one field differs afterwards, and mutate() says whether
  // one did.  Over a long walk every fact changes, and every enum fact
  // takes every value up to its last enumerator.
  Rng rng = Rng::sub_stream(3, 0);
  ScenarioGen gen(rng);
  legal::Scenario s = gen.generate("walk");
  const std::size_t slots = ScenarioGen::field_count();
  ASSERT_EQ(slots, legal::kEnumFactCount + legal::kFlagFactCount + 1);
  std::vector<int> changes(slots, 0);
  std::vector<std::uint32_t> values(legal::kEnumFactCount, 0);
  for (int step = 0; step < 20'000; ++step) {
    const legal::Scenario before = s;
    const bool changed = gen.mutate(s);
    const std::vector<bool> diff = fact_diff(before, s);
    ASSERT_EQ(diff.size(), slots);
    const auto moved = std::count(diff.begin(), diff.end(), true);
    ASSERT_LE(moved, 1) << "step " << step;
    ASSERT_EQ(changed, moved == 1) << "step " << step;
    for (std::size_t f = 0; f < slots; ++f) changes[f] += diff[f];
    std::size_t e = 0;
#define LEXFOR_SEEN(member, Type, last) \
  values[e++] |= 1u << static_cast<unsigned>(s.member);
    LEXFOR_FACT_LIST(LEXFOR_SEEN, LEXFOR_FACT_SKIP)
#undef LEXFOR_SEEN
  }
  for (std::size_t f = 0; f < slots; ++f) {
    EXPECT_GT(changes[f], 0) << "fact slot " << f << " never changed";
  }
  std::size_t e = 0;
#define LEXFOR_ALL_SEEN(member, Type, last)                       \
  EXPECT_EQ(values[e++],                                          \
            (2u << static_cast<unsigned>(legal::Type::last)) - 1) \
      << #member;
  LEXFOR_FACT_LIST(LEXFOR_ALL_SEEN, LEXFOR_FACT_SKIP)
#undef LEXFOR_ALL_SEEN
}

TEST(ScenarioGenTest, GenerateDrawsThePinnedRowsForFixedStreams) {
  // generate() seeds the check corpora and the benchmark's cold-cache
  // request pool, so its draws are pinned: the same stream must keep
  // giving the same scenario.
  const std::vector<std::string> want = {
      "Scenario{}.named(\"pin\").located(public venue).at_provider(ECS "
      "provider).with_consent(private employer consent).on_victim_system()"
      ".reaching_attacker().in_jurisdiction(\"ZZ\")",
      "Scenario{}.named(\"pin\").acquiring(subscriber records).located(on "
      "device).exposed_publicly().delivered().in_home().at_provider(non-"
      "public provider).with_consent(policy/banner consent)"
      ".password_protected().reaching_attacker().plain_view()"
      ".provider_protecting().in_jurisdiction(\"MD\").with_credentials()",
      "Scenario{}.named(\"pin\").by(ActorKind::government agent).acquiring("
      "subscriber records).located(stored at provider).general_public_use()"
      ".at_provider(ECS provider).with_consent(one-party consent)"
      ".reaching_attacker().probationer().in_jurisdiction(\"TX\")"
      ".previously_acquired()",
  };
  for (std::uint64_t stream = 0; stream < want.size(); ++stream) {
    Rng rng = Rng::sub_stream(7, stream);
    EXPECT_EQ(describe_scenario(ScenarioGen(rng).generate("pin")),
              want[stream])
        << "stream " << stream;
  }
}

TEST(ScenarioGenTest, DescribeRendersOnlyNonDefaultFields) {
  const legal::Scenario def = legal::Scenario{}.named("blank");
  EXPECT_EQ(describe_scenario(def), "Scenario{}.named(\"blank\")");

  legal::Scenario s = legal::Scenario{}
                          .named("tap")
                          .acquiring(legal::DataKind::kAddressing)
                          .exigent()
                          .in_jurisdiction("CA");
  const std::string row = describe_scenario(s);
  EXPECT_NE(row.find(".exigent()"), std::string::npos);
  EXPECT_NE(row.find("\"CA\""), std::string::npos);
  EXPECT_EQ(row.find(".shared()"), std::string::npos);
}

TEST(ScenarioGenTest, GeneratorCoversUnknownJurisdictions) {
  // The pool includes codes outside the statute database; over enough
  // draws both a known and an unknown code must appear.
  bool saw_known = false;
  bool saw_unknown = false;
  for (std::uint64_t t = 0; t < 200 && !(saw_known && saw_unknown); ++t) {
    Rng rng = Rng::sub_stream(9, t);
    const legal::Scenario s = ScenarioGen(rng).generate("j");
    if (s.jurisdiction == "XX" || s.jurisdiction == "ZZ") saw_unknown = true;
    if (s.jurisdiction == "US" || s.jurisdiction == "CA") saw_known = true;
  }
  EXPECT_TRUE(saw_known);
  EXPECT_TRUE(saw_unknown);
}

}  // namespace
}  // namespace lexfor::check
