#include "legal/jurisdiction.h"

#include <iterator>

namespace lexfor::legal {
namespace {

struct Entry {
  std::string_view code;
  std::string_view name;
  ConsentRegime regime;
};

constexpr Entry kTable[] = {
    {"US", "Federal (Title III)", ConsentRegime::kOneParty},
    // The all-party ("two-party") consent states.
    {"CA", "California", ConsentRegime::kAllParty},
    {"CT", "Connecticut", ConsentRegime::kAllParty},
    {"FL", "Florida", ConsentRegime::kAllParty},
    {"IL", "Illinois", ConsentRegime::kAllParty},
    {"MD", "Maryland", ConsentRegime::kAllParty},
    {"MA", "Massachusetts", ConsentRegime::kAllParty},
    {"MT", "Montana", ConsentRegime::kAllParty},
    {"NH", "New Hampshire", ConsentRegime::kAllParty},
    {"PA", "Pennsylvania", ConsentRegime::kAllParty},
    {"WA", "Washington", ConsentRegime::kAllParty},
    // A sample of one-party states.
    {"NY", "New York", ConsentRegime::kOneParty},
    {"TX", "Texas", ConsentRegime::kOneParty},
    {"VA", "Virginia", ConsentRegime::kOneParty},
    {"OH", "Ohio", ConsentRegime::kOneParty},
    {"CO", "Colorado", ConsentRegime::kOneParty},
};
static_assert(std::size(kTable) == kJurisdictionCount);
static_assert(
    [] {
      for (const Entry& e : kTable) {
        if (e.code.size() != 2) return false;
      }
      return true;
    }(),
    "jurisdiction_index compares two-letter codes");

}  // namespace

const std::vector<Jurisdiction>& jurisdictions() {
  static const std::vector<Jurisdiction> kDb = [] {
    std::vector<Jurisdiction> db;
    for (const Entry& e : kTable) {
      db.push_back({std::string(e.code), std::string(e.name), e.regime});
    }
    return db;
  }();
  return kDb;
}

std::size_t jurisdiction_index(std::string_view code) noexcept {
  // Every listed code has two letters, so two byte compares decide an
  // entry and any other length is unlisted.
  if (code.size() != 2) return kUnlistedJurisdiction;
  for (std::size_t i = 0; i < kJurisdictionCount; ++i) {
    if (kTable[i].code[0] == code[0] && kTable[i].code[1] == code[1]) {
      return i;
    }
  }
  return kUnlistedJurisdiction;
}

std::optional<Jurisdiction> find_jurisdiction(std::string_view code) {
  const std::size_t i = jurisdiction_index(code);
  if (i == kUnlistedJurisdiction) return std::nullopt;
  return jurisdictions()[i];
}

ConsentRegime consent_regime(std::string_view code) {
  const std::size_t i = jurisdiction_index(code);
  return i == kUnlistedJurisdiction ? ConsentRegime::kOneParty
                                    : kTable[i].regime;
}

}  // namespace lexfor::legal
