#include "legal/fact_key.h"

namespace lexfor::legal {
namespace {

// Where each fact lands in the key, walked from LEXFOR_FACT_LIST once
// at compile time.  Flags that follow each other in the list are
// adjacent in both the flag word and the key, so each such run moves
// with one mask and shift.
struct FactKeyLayout {
  struct FlagRun {
    unsigned flag_at = 0;  // first flag-word bit of the run
    unsigned count = 0;
    unsigned key_at = 0;   // first key bit of the run
  };
  unsigned enum_at[kEnumFactCount] = {};
  FlagRun runs[kFlagFactCount] = {};
  unsigned run_count = 0;
  unsigned jurisdiction_at = 0;
};

[[nodiscard]] consteval FactKeyLayout fact_key_layout() {
  FactKeyLayout l;
  unsigned at = 0;
  unsigned e = 0;
  unsigned f = 0;
  bool after_flag = false;
#define LEXFOR_LAYOUT_ENUM(member, Type, last) \
  l.enum_at[e++] = at;                         \
  at += fact_bits(Type::last);                 \
  after_flag = false;
#define LEXFOR_LAYOUT_FLAG(member)                        \
  if (!after_flag) l.runs[l.run_count++] = {f, 0, at}; \
  ++l.runs[l.run_count - 1].count;                        \
  ++f;                                                    \
  ++at;                                                   \
  after_flag = true;
  LEXFOR_FACT_LIST(LEXFOR_LAYOUT_ENUM, LEXFOR_LAYOUT_FLAG)
#undef LEXFOR_LAYOUT_ENUM
#undef LEXFOR_LAYOUT_FLAG
  l.jurisdiction_at = at;
  return l;
}

constexpr FactKeyLayout kFactKeyLayout = fact_key_layout();
static_assert(kFactKeyLayout.jurisdiction_at +
                      std::bit_width(kUnlistedJurisdiction) ==
                  kFactKeyBits,
              "the key layout and kFactKeyBits disagree");

}  // namespace

FactKey pack_fact_key(const std::uint8_t* enum_bytes, std::uint32_t flags,
                      std::string_view jurisdiction) noexcept {
  // Unrolled, every position below is a constant.
  constexpr const FactKeyLayout& l = kFactKeyLayout;
  std::uint64_t bits = 0;
#pragma GCC unroll 8
  for (unsigned i = 0; i < kEnumFactCount; ++i) {
    bits |= static_cast<std::uint64_t>(enum_bytes[i]) << l.enum_at[i];
  }
#pragma GCC unroll 8
  for (unsigned r = 0; r < l.run_count; ++r) {
    const FactKeyLayout::FlagRun& run = l.runs[r];
    const std::uint64_t mask = (std::uint64_t{1} << run.count) - 1;
    bits |= (static_cast<std::uint64_t>(flags >> run.flag_at) & mask)
            << run.key_at;
  }
  bits |= static_cast<std::uint64_t>(jurisdiction_index(jurisdiction))
          << l.jurisdiction_at;
  return FactKey{bits};
}

FactKey fact_key(const Scenario& s) noexcept {
  std::uint8_t enums[kEnumFactCount];
  unsigned e = 0;
#define LEXFOR_KEY_ENUM_BYTE(member, Type, last) \
  enums[e++] = static_cast<std::uint8_t>(s.member);
  LEXFOR_FACT_LIST(LEXFOR_KEY_ENUM_BYTE, LEXFOR_FACT_SKIP)
#undef LEXFOR_KEY_ENUM_BYTE
  return pack_fact_key(enums, flag_word(s), s.jurisdiction);
}

}  // namespace lexfor::legal
