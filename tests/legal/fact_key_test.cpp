#include "legal/fact_key.h"

#include <gtest/gtest.h>

#include <iterator>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "legal/batch.h"
#include "legal/engine.h"
#include "legal/jurisdiction.h"
#include "legal/scene_table.h"
#include "legal/table1.h"

namespace lexfor::legal {
namespace {

// The 23 flag facts, listed by hand rather than from LEXFOR_FACT_LIST,
// so a flag the list drops still shows up here.
constexpr bool Scenario::*kFlags[] = {
    &Scenario::acting_under_color_of_law,
    &Scenario::knowingly_exposed_to_public,
    &Scenario::shared_with_third_party,
    &Scenario::delivered_to_recipient,
    &Scenario::inside_home,
    &Scenario::via_sense_enhancing_tech,
    &Scenario::tech_in_general_public_use,
    &Scenario::readily_accessible_to_public,
    &Scenario::encrypted,
    &Scenario::message_opened_by_recipient,
    &Scenario::consent_revoked,
    &Scenario::target_area_password_protected,
    &Scenario::is_victim_system,
    &Scenario::targets_attacker_system,
    &Scenario::exigent_circumstances,
    &Scenario::in_plain_view,
    &Scenario::target_on_probation,
    &Scenario::emergency_pen_trap,
    &Scenario::provider_self_protection,
    &Scenario::device_lawfully_in_custody,
    &Scenario::contents_previously_lawfully_acquired,
    &Scenario::credentials_lawfully_obtained,
    &Scenario::target_arrested,
};

// Every scenario that differs from `base` in exactly one fact: each
// flag flipped, each enum moved to each of its other values, and the
// jurisdiction moved to each other listed code and to one unlisted code.
std::vector<Scenario> single_fact_variants(const Scenario& base) {
  std::vector<Scenario> out;
  for (const auto flag : kFlags) {
    Scenario s = base;
    s.*flag = !(s.*flag);
    out.push_back(s);
  }
  const auto each_value = [&](auto field, unsigned count) {
    for (unsigned v = 0; v < count; ++v) {
      Scenario s = base;
      s.*field = static_cast<std::remove_reference_t<decltype(s.*field)>>(v);
      if (s.*field != base.*field) out.push_back(s);
    }
  };
  each_value(&Scenario::actor, 4);
  each_value(&Scenario::data, 4);
  each_value(&Scenario::state, 4);
  each_value(&Scenario::timing, 2);
  each_value(&Scenario::provider, 4);
  each_value(&Scenario::consent, 10);
  for (const auto& j : jurisdictions()) {
    if (j.code == base.jurisdiction) continue;
    Scenario s = base;
    s.jurisdiction = j.code;
    out.push_back(s);
  }
  Scenario unlisted = base;  // both bases sit at a listed code
  unlisted.jurisdiction = "XX";
  out.push_back(unlisted);
  return out;
}

// A base with every flag set and every enum off its default, so each
// flip and move also runs against set neighbouring bits.
Scenario busy_base() {
  Scenario s;
  for (const auto flag : kFlags) s.*flag = true;
  s.actor = ActorKind::kPrivateParty;
  s.data = DataKind::kTransactionalRecords;
  s.state = DataState::kPublicVenue;
  s.timing = Timing::kStored;
  s.provider = ProviderClass::kNonPublic;
  s.consent = ConsentKind::kPolicyBanner;
  s.jurisdiction = "CO";
  return s;
}

// The fleet's template mix: Table-1 rows, then library scenes.
std::vector<Scenario> fleet_templates() {
  std::vector<Scenario> out;
  for (const auto& scene : table1::all_scenes()) out.push_back(scene.scenario);
  for (const auto& d : library::scenes()) out.push_back(d.build());
  return out;
}

// An identity for a scenario's facts that does not go through FactKey:
// the audit digest of the scenario with its name stripped.
std::string stripped_digest(Scenario s) {
  s.name.clear();
  return fingerprint_hex(s);
}

std::size_t distinct_stripped(const std::vector<Scenario>& scenarios) {
  std::set<std::string> digests;
  for (const auto& s : scenarios) digests.insert(stripped_digest(s));
  return digests.size();
}

TEST(FactKeyTest, HandListedFlagsMatchTheFactList) {
  EXPECT_EQ(std::size(kFlags), std::size_t{kFlagFactCount});
  EXPECT_EQ(kEnumFactCount, 6u);
}

TEST(FactKeyTest, EverySingleFactChangeMovesTheKey) {
  for (const Scenario& base : {Scenario{}, busy_base()}) {
    const std::vector<Scenario> variants = single_fact_variants(base);
    // 23 flags + (3+3+3+1+3+9) enum moves + 15 other listed codes + 1
    // unlisted code.
    ASSERT_EQ(variants.size(), 23u + 22u + 16u);
    std::set<std::uint64_t> keys = {fact_key(base).bits};
    for (std::size_t i = 0; i < variants.size(); ++i) {
      EXPECT_NE(fact_key(variants[i]), fact_key(base)) << "variant " << i;
      keys.insert(fact_key(variants[i]).bits);
    }
    // No two variants share a key either, so every pair of values of
    // one enum and every pair of listed codes differ, and a field that
    // overflowed its width would collide with a neighbour's flip.
    EXPECT_EQ(keys.size(), variants.size() + 1);
  }
}

TEST(FactKeyTest, RenameKeepsTheKey) {
  for (const Scenario& s : fleet_templates()) {
    Scenario renamed = s;
    renamed.name = "another label for " + s.name;
    EXPECT_EQ(fact_key(renamed), fact_key(s)) << s.name;
    EXPECT_NE(fingerprint(renamed), fingerprint(s)) << s.name;
  }
}

TEST(FactKeyTest, UnlistedCodesShareOneKey) {
  const FactKey unlisted = fact_key(Scenario{}.in_jurisdiction("XX"));
  for (const char* code : {"ZZ", "", "ca"}) {
    EXPECT_EQ(fact_key(Scenario{}.in_jurisdiction(code)), unlisted) << code;
  }
}

// 12 of the 66 fleet templates repeat an earlier template's facts under
// another name.  Each such pair shares a key and a compact verdict, and
// templates with different facts never share a key.
TEST(FactKeyTest, FactIdenticalTemplatesShareKeyAndVerdict) {
  const ComplianceEngine engine;
  const std::vector<Scenario> mix = fleet_templates();
  ASSERT_EQ(mix.size(), 66u);

  std::map<std::string, std::size_t> first_with;  // stripped digest -> index
  std::size_t repeats = 0;
  for (std::size_t j = 0; j < mix.size(); ++j) {
    const auto [it, fresh] = first_with.emplace(stripped_digest(mix[j]), j);
    if (fresh) continue;
    ++repeats;
    const Scenario& a = mix[it->second];
    const Scenario& b = mix[j];
    EXPECT_EQ(fact_key(a), fact_key(b)) << a.name << " / " << b.name;
    const Determination da = engine.evaluate(a);
    const Determination db = engine.evaluate(b);
    EXPECT_EQ(da.needs_process, db.needs_process) << a.name << " / " << b.name;
    EXPECT_EQ(da.required_process, db.required_process) << b.name;
    EXPECT_EQ(da.required_proof, db.required_proof) << b.name;
  }
  EXPECT_EQ(repeats, 12u);

  std::set<std::uint64_t> keys;
  for (const auto& s : mix) keys.insert(fact_key(s).bits);
  EXPECT_EQ(keys.size(), first_with.size());
  EXPECT_EQ(keys.size(), 54u);
}

TEST(FactKeyTest, Table1AndLibraryDistinctFactCounts) {
  std::vector<Scenario> rows;
  for (const auto& scene : table1::all_scenes()) rows.push_back(scene.scenario);
  EXPECT_EQ(distinct_stripped(rows), 17u);
  // Rows 4 = 8, 6 = 13 and 9 = 10 ask the same question.
  constexpr std::pair<int, int> kSameQuestion[] = {{4, 8}, {6, 13}, {9, 10}};
  for (const auto& [a, b] : kSameQuestion) {
    EXPECT_EQ(fact_key(table1::scene(a).scenario),
              fact_key(table1::scene(b).scenario))
        << a << " = " << b;
  }

  std::vector<Scenario> scenes;
  for (const auto& d : library::scenes()) scenes.push_back(d.build());
  ASSERT_EQ(scenes.size(), 46u);
  EXPECT_EQ(distinct_stripped(scenes), 42u);
}

}  // namespace
}  // namespace lexfor::legal
