// Jurisdictions and consent regimes.
//
// The paper flags a trap for tool designers (§III.B.c.vi, citing the
// California recording law): federal law and most states validate an
// interception when ONE party consents, but a minority of states
// require ALL parties to consent.  A technique premised on one-party
// consent is unusable in those states.  Jurisdictions are data; the
// exception catalogue consults the scenario's jurisdiction.

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lexfor::legal {

enum class ConsentRegime {
  kOneParty,  // one party's consent validates the interception
  kAllParty,  // every party must consent
};

struct Jurisdiction {
  std::string code;  // "US", "CA", "MA", ...
  std::string name;
  ConsentRegime regime = ConsentRegime::kOneParty;
};

// Federal baseline plus the classic all-party states and a sample of
// one-party states.
[[nodiscard]] const std::vector<Jurisdiction>& jurisdictions();

inline constexpr std::size_t kJurisdictionCount = 16;
// jurisdiction_index's one answer for every code the table does not
// list.
inline constexpr std::size_t kUnlistedJurisdiction = kJurisdictionCount;

// The code's position in jurisdictions(), or kUnlistedJurisdiction.
// Codes are matched exactly ("ca" is unlisted).  Never allocates.
[[nodiscard]] std::size_t jurisdiction_index(std::string_view code) noexcept;

// Lookup by code; nullopt when unknown.
[[nodiscard]] std::optional<Jurisdiction> find_jurisdiction(
    std::string_view code);

// The regime for a code; unknown codes fall back to the federal
// one-party baseline.
[[nodiscard]] ConsentRegime consent_regime(std::string_view code);

[[nodiscard]] constexpr std::string_view to_string(ConsentRegime r) noexcept {
  switch (r) {
    case ConsentRegime::kOneParty: return "one-party consent";
    case ConsentRegime::kAllParty: return "all-party consent";
  }
  return "?";
}

}  // namespace lexfor::legal
