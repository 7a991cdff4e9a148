// Deterministic random-walk generation of legal::Scenario values.
//
// The differential checker and the metamorphic rules need scenarios
// drawn from the WHOLE doctrine space, not just the curated library:
// every enum member, every exposure flag, jurisdictions both known and
// unknown to the database.  ScenarioGen samples that space from a
// seeded util::Rng, so every generated scenario is reproducible from
// (seed, trial, step) alone, and mutate() takes one random-walk step by
// re-sampling a single field — the move the metamorphic rules perturb
// around.
//
// describe_scenario() renders any scenario as a scene-table-style row
// (only non-default fields), which is how the checker prints failures:
// the row is simultaneously the repro recipe and a candidate new
// LEXFOR_SCENE_LIST entry.

#pragma once

#include <string>

#include "legal/scenario.h"
#include "util/rng.h"

namespace lexfor::check {

class ScenarioGen {
 public:
  explicit ScenarioGen(Rng& rng) : rng_(rng) {}

  // A fresh scenario with every field sampled uniformly from its valid
  // range (plus a sprinkling of out-of-database jurisdiction codes,
  // which the engine must treat as the federal default).
  [[nodiscard]] legal::Scenario generate(std::string name);

  // One random-walk step: re-samples exactly one field, picked
  // uniformly from every enum and flag fact of LEXFOR_FACT_LIST and the
  // jurisdiction.  Returns true when the chosen field actually changed
  // value (callers use this to decide whether the canonical
  // fingerprint must differ).
  bool mutate(legal::Scenario& s);

  // The number of distinct mutable field slots mutate() picks from.
  [[nodiscard]] static constexpr std::size_t field_count() noexcept {
    return legal::kEnumFactCount + legal::kFlagFactCount + 1;
  }

 private:
  Rng& rng_;
};

// Scene-table-style rendering of a scenario: the fluent-builder chain
// that reproduces it, listing only fields that differ from the
// default-constructed Scenario.
[[nodiscard]] std::string describe_scenario(const legal::Scenario& s);

}  // namespace lexfor::check
