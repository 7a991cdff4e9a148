#include "check/scenario_gen.h"

#include <array>
#include <sstream>
#include <utility>

namespace lexfor::check {
namespace {

using legal::ActorKind;
using legal::ConsentKind;
using legal::DataKind;
using legal::DataState;
using legal::ProviderClass;
using legal::Scenario;
using legal::Timing;

// Jurisdiction pool: the federal baseline, all-party states, one-party
// states, and codes absent from the database (which consent_regime maps
// to the one-party default — the checker must see that path too).
constexpr std::array<const char*, 10> kJurisdictions = {
    "US", "CA", "MD", "WA", "FL", "NY", "TX", "OH", "XX", "ZZ"};

template <typename E>
E pick_enum(Rng& rng, std::uint64_t member_count) {
  return static_cast<E>(rng.uniform(member_count));
}

}  // namespace

Scenario ScenarioGen::generate(std::string name) {
  Scenario s;
  s.name = std::move(name);
  s.actor = pick_enum<ActorKind>(rng_, 4);
  s.acting_under_color_of_law = rng_.bernoulli(0.25);
  s.data = pick_enum<DataKind>(rng_, 4);
  s.state = pick_enum<DataState>(rng_, 4);
  s.timing = pick_enum<Timing>(rng_, 2);
  // Exposure flags lean false so the REP-surviving heartland stays well
  // represented; each flag still flips often enough to hit every branch
  // thousands of times over a 10k-trial sweep.
  s.knowingly_exposed_to_public = rng_.bernoulli(0.2);
  s.shared_with_third_party = rng_.bernoulli(0.2);
  s.delivered_to_recipient = rng_.bernoulli(0.2);
  s.inside_home = rng_.bernoulli(0.2);
  s.via_sense_enhancing_tech = rng_.bernoulli(0.2);
  s.tech_in_general_public_use = rng_.bernoulli(0.2);
  s.readily_accessible_to_public = rng_.bernoulli(0.2);
  s.encrypted = rng_.bernoulli(0.2);
  s.provider = pick_enum<ProviderClass>(rng_, 4);
  s.message_opened_by_recipient = rng_.bernoulli(0.25);
  s.consent = pick_enum<ConsentKind>(rng_, 10);
  s.consent_revoked = rng_.bernoulli(0.15);
  s.target_area_password_protected = rng_.bernoulli(0.2);
  s.is_victim_system = rng_.bernoulli(0.2);
  s.targets_attacker_system = rng_.bernoulli(0.2);
  s.exigent_circumstances = rng_.bernoulli(0.15);
  s.in_plain_view = rng_.bernoulli(0.15);
  s.target_on_probation = rng_.bernoulli(0.15);
  s.emergency_pen_trap = rng_.bernoulli(0.15);
  s.provider_self_protection = rng_.bernoulli(0.15);
  s.jurisdiction = kJurisdictions[rng_.uniform(kJurisdictions.size())];
  s.device_lawfully_in_custody = rng_.bernoulli(0.2);
  s.contents_previously_lawfully_acquired = rng_.bernoulli(0.15);
  s.credentials_lawfully_obtained = rng_.bernoulli(0.2);
  s.target_arrested = rng_.bernoulli(0.2);
  return s;
}

bool ScenarioGen::mutate(Scenario& s) {
  // Slot k is the k-th fact of LEXFOR_FACT_LIST; the last slot is the
  // jurisdiction.  An enum fact draws from all of its values, a flag
  // from a fair coin.
  const auto set = [](auto& field, auto next) {
    const bool changed = next != field;
    field = std::move(next);
    return changed;
  };
  std::uint64_t slot = rng_.uniform(field_count());
#define LEXFOR_MUTATE_ENUM(member, Type, last)                  \
  if (slot-- == 0) {                                            \
    const std::uint64_t values =                                \
        static_cast<std::uint64_t>(legal::Type::last) + 1;      \
    return set(s.member, pick_enum<legal::Type>(rng_, values)); \
  }
#define LEXFOR_MUTATE_FLAG(member) \
  if (slot-- == 0) return set(s.member, rng_.bernoulli(0.5));
  LEXFOR_FACT_LIST(LEXFOR_MUTATE_ENUM, LEXFOR_MUTATE_FLAG)
#undef LEXFOR_MUTATE_ENUM
#undef LEXFOR_MUTATE_FLAG
  return set(s.jurisdiction,
             std::string(kJurisdictions[rng_.uniform(kJurisdictions.size())]));
}

std::string describe_scenario(const Scenario& s) {
  const Scenario def;
  std::ostringstream os;
  os << "Scenario{}.named(\"" << s.name << "\")";
  if (s.actor != def.actor) os << ".by(ActorKind::" << to_string(s.actor) << ")";
  if (s.acting_under_color_of_law) os << ".under_color_of_law()";
  if (s.data != def.data) os << ".acquiring(" << to_string(s.data) << ")";
  if (s.state != def.state) os << ".located(" << to_string(s.state) << ")";
  if (s.timing != def.timing) os << ".when(" << to_string(s.timing) << ")";
  if (s.knowingly_exposed_to_public) os << ".exposed_publicly()";
  if (s.shared_with_third_party) os << ".shared()";
  if (s.delivered_to_recipient) os << ".delivered()";
  if (s.inside_home) os << ".in_home()";
  if (s.via_sense_enhancing_tech) os << ".sense_enhancing()";
  if (s.tech_in_general_public_use) os << ".general_public_use()";
  if (s.readily_accessible_to_public) os << ".publicly_accessible()";
  if (s.encrypted) os << ".with_encryption()";
  if (s.provider != def.provider) {
    os << ".at_provider(" << to_string(s.provider) << ")";
  }
  if (s.message_opened_by_recipient) os << ".opened()";
  if (s.consent != def.consent) {
    os << ".with_consent(" << to_string(s.consent) << ")";
  }
  if (s.consent_revoked) os << ".revoked()";
  if (s.target_area_password_protected) os << ".password_protected()";
  if (s.is_victim_system) os << ".on_victim_system()";
  if (s.targets_attacker_system) os << ".reaching_attacker()";
  if (s.exigent_circumstances) os << ".exigent()";
  if (s.in_plain_view) os << ".plain_view()";
  if (s.target_on_probation) os << ".probationer()";
  if (s.emergency_pen_trap) os << ".pen_trap_emergency()";
  if (s.provider_self_protection) os << ".provider_protecting()";
  if (s.jurisdiction != def.jurisdiction) {
    os << ".in_jurisdiction(\"" << s.jurisdiction << "\")";
  }
  if (s.device_lawfully_in_custody) os << ".device_in_custody()";
  if (s.contents_previously_lawfully_acquired) os << ".previously_acquired()";
  if (s.credentials_lawfully_obtained) os << ".with_credentials()";
  if (s.target_arrested) os << ".arrested()";
  return os.str();
}

}  // namespace lexfor::check
