// Scenario: a structured description of a contemplated acquisition.
//
// A Scenario captures the facts the paper's doctrine turns on: who acts,
// what kind of data is touched, where it lives, whether it moves in real
// time, how exposed it is, and which special circumstances (consent,
// attack victim, arrest, prior lawful acquisition, ...) are present.
// The ComplianceEngine maps a Scenario to a Determination.

#pragma once

#include <cstdint>
#include <string>

#include "legal/types.h"

namespace lexfor::legal {

struct Scenario {
  // Free-text label used in reports ("Table 1 scene 7").
  std::string name;

  // Who performs the acquisition.
  ActorKind actor = ActorKind::kLawEnforcement;
  // True when a nominally private actor is directed by the government,
  // which makes the Fourth Amendment apply to them ("acting under color
  // of law").
  bool acting_under_color_of_law = false;

  // What is acquired, where, and when.
  DataKind data = DataKind::kContent;
  DataState state = DataState::kInTransit;
  Timing timing = Timing::kRealTime;

  // Exposure facts driving the REP analysis (§II.C).
  bool knowingly_exposed_to_public = false;   // posted/broadcast publicly
  bool shared_with_third_party = false;       // handed to others / shared folder
  bool delivered_to_recipient = false;        // transmission completed
  bool inside_home = false;                   // acquisition reveals home interior
  bool via_sense_enhancing_tech = false;      // Kyllo-style device
  bool tech_in_general_public_use = false;    // Kyllo factor (i)
  bool readily_accessible_to_public = false;  // 2511(2)(g)(i): open broadcast
  bool encrypted = false;                     // configured as non-public

  // Provider facts (SCA).
  ProviderClass provider = ProviderClass::kNotAProvider;
  // For stored email: opened/retrieved messages at a non-public provider
  // fall out of the SCA entirely (§III.A.3 Alice/Bob example).
  bool message_opened_by_recipient = false;

  // Consent and special circumstances (§III.B).
  ConsentKind consent = ConsentKind::kNone;
  bool consent_revoked = false;
  // The target area is another user's password-protected space: a
  // co-user's (or spouse's) consent cannot reach it (Trulock v. Freeh).
  bool target_area_password_protected = false;
  bool is_victim_system = false;       // monitoring happens on the victim's system
  bool targets_attacker_system = false;// reaches into the attacker's own machine
  bool exigent_circumstances = false;
  bool in_plain_view = false;          // lawful vantage, incriminating nature apparent
  bool target_on_probation = false;
  bool emergency_pen_trap = false;     // § 3125(a) emergency
  bool provider_self_protection = false;  // provider monitoring its own system

  // Jurisdiction code ("US" federal baseline; state codes like "CA"
  // switch the consent regime to all-party, §III.B.c.vi).
  std::string jurisdiction = "US";

  // Device / stored-data history (Table-1 scenes 18-20).
  bool device_lawfully_in_custody = false;       // hardware lawfully held
  bool contents_previously_lawfully_acquired = false;  // data itself already lawfully obtained
  bool credentials_lawfully_obtained = false;    // username/password lawfully in hand
  bool target_arrested = false;

  // --- fluent setters so scene definitions read like the table rows ---
  Scenario& named(std::string n) { name = std::move(n); return *this; }
  Scenario& by(ActorKind a) { actor = a; return *this; }
  Scenario& under_color_of_law(bool v = true) { acting_under_color_of_law = v; return *this; }
  Scenario& acquiring(DataKind k) { data = k; return *this; }
  Scenario& located(DataState s) { state = s; return *this; }
  Scenario& when(Timing t) { timing = t; return *this; }
  Scenario& exposed_publicly(bool v = true) { knowingly_exposed_to_public = v; return *this; }
  Scenario& shared(bool v = true) { shared_with_third_party = v; return *this; }
  Scenario& delivered(bool v = true) { delivered_to_recipient = v; return *this; }
  Scenario& in_home(bool v = true) { inside_home = v; return *this; }
  Scenario& sense_enhancing(bool v = true) { via_sense_enhancing_tech = v; return *this; }
  Scenario& general_public_use(bool v = true) { tech_in_general_public_use = v; return *this; }
  Scenario& publicly_accessible(bool v = true) { readily_accessible_to_public = v; return *this; }
  Scenario& with_encryption(bool v = true) { encrypted = v; return *this; }
  Scenario& at_provider(ProviderClass p) { provider = p; return *this; }
  Scenario& opened(bool v = true) { message_opened_by_recipient = v; return *this; }
  Scenario& with_consent(ConsentKind c) { consent = c; return *this; }
  Scenario& in_jurisdiction(std::string code) { jurisdiction = std::move(code); return *this; }
  Scenario& revoked(bool v = true) { consent_revoked = v; return *this; }
  Scenario& password_protected(bool v = true) { target_area_password_protected = v; return *this; }
  Scenario& on_victim_system(bool v = true) { is_victim_system = v; return *this; }
  Scenario& reaching_attacker(bool v = true) { targets_attacker_system = v; return *this; }
  Scenario& exigent(bool v = true) { exigent_circumstances = v; return *this; }
  Scenario& plain_view(bool v = true) { in_plain_view = v; return *this; }
  Scenario& probationer(bool v = true) { target_on_probation = v; return *this; }
  Scenario& pen_trap_emergency(bool v = true) { emergency_pen_trap = v; return *this; }
  Scenario& provider_protecting(bool v = true) { provider_self_protection = v; return *this; }
  Scenario& device_in_custody(bool v = true) { device_lawfully_in_custody = v; return *this; }
  Scenario& previously_acquired(bool v = true) { contents_previously_lawfully_acquired = v; return *this; }
  Scenario& with_credentials(bool v = true) { credentials_lawfully_obtained = v; return *this; }
  Scenario& arrested(bool v = true) { target_arrested = v; return *this; }

  // True when the actor is bound by the Fourth Amendment: law
  // enforcement, or a private party acting at the government's behest.
  [[nodiscard]] bool government_actor() const noexcept {
    return actor == ActorKind::kLawEnforcement ||
           actor == ActorKind::kGovernmentAgent ||
           acting_under_color_of_law;
  }
};

// Every enum and flag fact of a Scenario, once, in declaration order:
//
//   ENUM(member, Type, kLastEnumerator)   an enum fact and its last value
//   FLAG(member)                          a bool fact
//
// Expanded with only ENUM it gives the enum byte order, and with only
// FLAG the flag bit order, of both the canonical fingerprint
// (legal/batch.cpp) and the wire payload (serve/wire.cpp); fact_key
// (legal/fact_key.h) packs the same list.  The two strings, name and
// jurisdiction, are not in it: each of those codecs handles them by
// hand.  Reordering the list changes the fingerprint and the wire
// bytes (WireTest.FleetFramesAndFingerprintsArePinned).
#define LEXFOR_FACT_LIST(ENUM, FLAG)            \
  ENUM(actor, ActorKind, kPrivateParty)         \
  FLAG(acting_under_color_of_law)               \
  ENUM(data, DataKind, kTransactionalRecords)   \
  ENUM(state, DataState, kPublicVenue)          \
  ENUM(timing, Timing, kStored)                 \
  FLAG(knowingly_exposed_to_public)             \
  FLAG(shared_with_third_party)                 \
  FLAG(delivered_to_recipient)                  \
  FLAG(inside_home)                             \
  FLAG(via_sense_enhancing_tech)                \
  FLAG(tech_in_general_public_use)              \
  FLAG(readily_accessible_to_public)            \
  FLAG(encrypted)                               \
  ENUM(provider, ProviderClass, kNonPublic)     \
  FLAG(message_opened_by_recipient)             \
  ENUM(consent, ConsentKind, kPolicyBanner)     \
  FLAG(consent_revoked)                         \
  FLAG(target_area_password_protected)          \
  FLAG(is_victim_system)                        \
  FLAG(targets_attacker_system)                 \
  FLAG(exigent_circumstances)                   \
  FLAG(in_plain_view)                           \
  FLAG(target_on_probation)                     \
  FLAG(emergency_pen_trap)                      \
  FLAG(provider_self_protection)                \
  FLAG(device_lawfully_in_custody)              \
  FLAG(contents_previously_lawfully_acquired)   \
  FLAG(credentials_lawfully_obtained)           \
  FLAG(target_arrested)

// Expansion helpers: drop an entry, or count it.
#define LEXFOR_FACT_SKIP(...)
#define LEXFOR_FACT_PLUS_ONE(...) +1

inline constexpr unsigned kEnumFactCount =
    0 LEXFOR_FACT_LIST(LEXFOR_FACT_PLUS_ONE, LEXFOR_FACT_SKIP);
inline constexpr unsigned kFlagFactCount =
    0 LEXFOR_FACT_LIST(LEXFOR_FACT_SKIP, LEXFOR_FACT_PLUS_ONE);
static_assert(kFlagFactCount <= 32, "the flag facts must fit one u32 word");

// The flag facts as one word: bit i holds the i-th FLAG of the list.
[[nodiscard]] inline std::uint32_t flag_word(const Scenario& s) noexcept {
  std::uint32_t bits = 0;
  unsigned bit = 0;
#define LEXFOR_FLAG_BIT(member) \
  bits |= static_cast<std::uint32_t>(s.member) << bit++;
  LEXFOR_FACT_LIST(LEXFOR_FACT_SKIP, LEXFOR_FLAG_BIT)
#undef LEXFOR_FLAG_BIT
  return bits;
}

// The inverse of flag_word; bits at kFlagFactCount and above are
// ignored.
inline void set_flag_word(std::uint32_t bits, Scenario& s) noexcept {
  unsigned bit = 0;
#define LEXFOR_FLAG_SET(member) s.member = ((bits >> bit++) & 1u) != 0;
  LEXFOR_FACT_LIST(LEXFOR_FACT_SKIP, LEXFOR_FLAG_SET)
#undef LEXFOR_FLAG_SET
}

}  // namespace lexfor::legal
