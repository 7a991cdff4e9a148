// Differential doctrine analysis: N-version cross-checking of the three
// independent encodings of the paper's compliance doctrine.
//
// The repo answers "does this acquisition need process?" three ways:
//
//   1. the runtime ComplianceEngine (legal/engine.h), reached both
//      serially and through the BatchEvaluator's verdict cache,
//   2. the static PlanLinter (lint/linter.h), which evaluates planned
//      acquisitions and diagnoses missing process / taint, and
//   3. the suppression auditor (legal/suppression.h), which decides
//      after the fact whether the evidence survives.
//
// Each was written against the paper, not against the others, so they
// form an N-version oracle: on any scenario the doctrine space admits,
// all three must agree.  DifferentialChecker walks seeded random
// scenarios (plus every library scene) and cross-checks, per scenario:
//
//   - engine determinism and verdict-cache coherence (serial evaluate ==
//     cached evaluate, field for field),
//   - canonical fingerprint stability (copies collide, doctrine-field
//     mutations don't),
//   - fact-key stability, soundness and sensitivity (legal/fact_key.h):
//     copies and renamed copies keep the key; a renamed copy, or one
//     moved between two unlisted jurisdiction codes, gets the same
//     Determination apart from scenario_name, from the engine and from
//     a cache hit; every other doctrine-field mutation moves the key,
//   - lint agreement: a single-step plan with no planned process is
//     flagged missing-process iff the engine demands process, and a plan
//     holding exactly the required instrument is never flagged,
//   - suppression agreement: held == nothing suppresses iff the engine
//     demands process; held == required (or stronger) always survives;
//     and a lawful child derived from the record is suppressed iff the
//     parent is — the same closure the linter computes statically.
//
// Failures print as a scene-table row (see scenario_gen.h) so a
// counterexample can be replayed or promoted into LEXFOR_SCENE_LIST.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "legal/batch.h"
#include "legal/scenario.h"
#include "lint/plan.h"

namespace lexfor::check {

struct CheckOptions {
  std::uint64_t seed = 0x1e9a1'f0c5ULL;
  // Number of fresh scenarios; each takes `walk_steps` additional
  // mutation steps, so the checked-scenario count is
  // trials * (1 + walk_steps).
  std::size_t trials = 10'000;
  std::size_t walk_steps = 3;
  // Stop after this many violations (0 = collect everything).
  std::size_t max_violations = 16;
};

struct Violation {
  std::string rule;          // which invariant broke, e.g. "lint-agreement"
  std::string detail;        // what disagreed, with both answers
  std::string scenario_row;  // describe_scenario() repro recipe
  std::uint64_t seed = 0;
  std::size_t trial = 0;

  [[nodiscard]] std::string to_string() const;
};

struct CheckReport {
  std::size_t trials = 0;
  std::size_t scenarios_checked = 0;
  std::size_t comparisons = 0;  // individual oracle-vs-oracle checks
  std::vector<Violation> violations;

  [[nodiscard]] bool ok() const noexcept { return violations.empty(); }
  [[nodiscard]] std::string summary() const;

  void merge(const CheckReport& other);
};

// Wraps `s` as a one-acquisition InvestigationPlan.  With
// `authority == kNone` the plan schedules no application (the team
// intends to proceed processless); otherwise it applies for exactly
// `authority` at day 0 with warrant-grade facts and executes at day 1,
// inside the validity window.
[[nodiscard]] lint::InvestigationPlan single_step_plan(
    const legal::Scenario& s, legal::ProcessKind authority);

class DifferentialChecker {
 public:
  // Evaluations run through a PRIVATE verdict cache so fuzz traffic
  // never evicts the process-wide shared cache entries.
  DifferentialChecker();

  // Cross-checks one scenario across all oracles; appends violations.
  void check_scenario(const legal::Scenario& s, std::uint64_t seed,
                      std::size_t trial, CheckReport& report) const;

  // The full sweep: every library scene (including its table-declared
  // expected verdict), then `options.trials` seeded random walks.
  [[nodiscard]] CheckReport run(const CheckOptions& options) const;

  [[nodiscard]] const legal::BatchEvaluator& evaluator() const noexcept {
    return evaluator_;
  }

 private:
  legal::BatchEvaluator evaluator_;
};

// Convenience entry point used by tests and tools.
[[nodiscard]] CheckReport run_differential(const CheckOptions& options);

// Routes one violation to the obs flight recorder (obs/flight.h): when
// the recorder is armed, writes a dump whose reason names the broken
// rule, so a fuzz failure leaves the recent trace + metrics on disk
// next to the printed counterexample.  No-op when the recorder is
// disarmed or observability is compiled out.  Called automatically by
// the checker/rules paths; exposed so tests and tools can route
// synthetic violations.
void report_to_flight(const Violation& v);

}  // namespace lexfor::check
