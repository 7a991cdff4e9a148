#include "check/differential.h"

#include <sstream>

#include "check/scenario_gen.h"
#include "legal/fact_key.h"
#include "legal/jurisdiction.h"
#include "legal/scenario_library.h"
#include "legal/suppression.h"
#include "lint/linter.h"
#include "lint/passes.h"
#include "obs/obs.h"
#include "util/rng.h"

namespace lexfor::check {
namespace {

// A fact set supporting probable cause (IP linked + subscriber
// identified, the paper's warrant-grade pairing).  Title III's
// probable-cause-plus-necessity showing is deliberately NOT reachable
// from facts alone in this model, so a wiretap-order application always
// draws exactly one proof-gap diagnostic — an engine/linter agreement
// fact the checker encodes below.
void add_warrant_grade_facts(lint::InvestigationPlan& plan) {
  plan.with_fact({legal::FactKind::kIpAddressLinked, 1.0, "IP linked"})
      .with_fact(
          {legal::FactKind::kSubscriberIdentified, 1.0, "subscriber found"});
}

// Field-for-field comparison of two Determinations; empty string when
// they match.  The engine is pure, so any difference between the serial
// and cached paths is a verdict-cache corruption.
std::string diff_determinations(const legal::Determination& a,
                                const legal::Determination& b) {
  std::ostringstream os;
  if (a.needs_process != b.needs_process) {
    os << "needs_process " << a.needs_process << " vs " << b.needs_process
       << "; ";
  }
  if (a.required_process != b.required_process) {
    os << "required_process " << to_string(a.required_process) << " vs "
       << to_string(b.required_process) << "; ";
  }
  if (a.required_proof != b.required_proof) {
    os << "required_proof " << to_string(a.required_proof) << " vs "
       << to_string(b.required_proof) << "; ";
  }
  if (a.rep.has_rep != b.rep.has_rep) {
    os << "rep " << a.rep.has_rep << " vs " << b.rep.has_rep << "; ";
  }
  if (a.governing_statutes != b.governing_statutes) os << "statutes differ; ";
  if (a.exceptions_applied != b.exceptions_applied) os << "exceptions differ; ";
  if (a.rationale != b.rationale) os << "rationale differs; ";
  if (a.citations != b.citations) os << "citations differ; ";
  return os.str();
}

}  // namespace

std::string Violation::to_string() const {
  std::ostringstream os;
  os << "[" << rule << "] seed=" << seed << " trial=" << trial << "\n  "
     << detail << "\n  repro: " << scenario_row;
  return os.str();
}

void report_to_flight(const Violation& v) {
#if LEXFOR_OBS
  obs::FlightRecorder& recorder = obs::flight_recorder();
  if (!recorder.armed()) return;
  (void)recorder.dump("check-violation:" + v.rule);
#else
  (void)v;
#endif
}

std::string CheckReport::summary() const {
  std::ostringstream os;
  os << "differential check: " << scenarios_checked << " scenarios ("
     << trials << " trials), " << comparisons << " comparisons, "
     << violations.size() << " violation(s)";
  for (const auto& v : violations) os << "\n" << v.to_string();
  return os.str();
}

void CheckReport::merge(const CheckReport& other) {
  trials += other.trials;
  scenarios_checked += other.scenarios_checked;
  comparisons += other.comparisons;
  violations.insert(violations.end(), other.violations.begin(),
                    other.violations.end());
}

lint::InvestigationPlan single_step_plan(const legal::Scenario& s,
                                         legal::ProcessKind authority) {
  lint::InvestigationPlan plan("differential: " + s.name,
                               legal::CrimeCategory::kGeneral);
  const auto day = [](double d) { return SimTime::from_sec(d * 86400.0); };
  if (authority == legal::ProcessKind::kNone) {
    plan.plan_acquisition("acquire", s, day(1));
    return plan;
  }
  add_warrant_grade_facts(plan);
  const PlanStepId app = plan.plan_application("apply", authority, day(0));
  plan.plan_acquisition("acquire", s, day(1)).using_authority(app);
  return plan;
}

DifferentialChecker::DifferentialChecker()
    : evaluator_(legal::BatchOptions{.threads = 1,
                                     .cache_capacity = 1 << 15,
                                     .cache_shards = 8,
                                     .use_shared_cache = false}) {}

void DifferentialChecker::check_scenario(const legal::Scenario& s,
                                         std::uint64_t seed, std::size_t trial,
                                         CheckReport& report) const {
  LEXFOR_OBS_COUNTER_ADD("check.scenarios", 1);
  ++report.scenarios_checked;

  const auto fail = [&](const char* rule, std::string detail) {
    LEXFOR_OBS_COUNTER_ADD("check.violations", 1);
    report.violations.push_back(Violation{rule, std::move(detail),
                                          describe_scenario(s), seed, trial});
    report_to_flight(report.violations.back());
  };
  const auto compared = [&](std::size_t n) {
    report.comparisons += n;
    LEXFOR_OBS_COUNTER_ADD("check.comparisons", static_cast<std::int64_t>(n));
  };

  // --- 1. engine determinism & verdict-cache coherence -----------------
  const legal::Determination serial = evaluator_.engine().evaluate(s);
  const legal::Determination cached = evaluator_.evaluate(s);   // fill or hit
  const legal::Determination cached2 = evaluator_.evaluate(s);  // certain hit
  if (const std::string d = diff_determinations(serial, cached); !d.empty()) {
    fail("engine-cache-coherence", "serial vs cached evaluate: " + d);
  }
  if (const std::string d = diff_determinations(cached, cached2); !d.empty()) {
    fail("engine-determinism", "two cached evaluations differ: " + d);
  }
  compared(2);

  // --- 2. canonical fingerprint stability ------------------------------
  const legal::Scenario copy = s;
  if (legal::fingerprint(s) != legal::fingerprint(copy)) {
    fail("fingerprint-stability",
         "copying a scenario changed its canonical fingerprint");
  }
  compared(1);

  // --- 2b. fact key: stability and soundness ---------------------------
  // Both verdict caches key on fact_key, which leaves the name out and
  // gives every unlisted jurisdiction code one value.  A renamed copy
  // must keep the key, and the engine must give it the same answer
  // apart from scenario_name; so must a copy moved between two unlisted
  // codes.  The renamed copy's cached evaluate is a hit on the entry
  // `s` filled, and must carry the new name.
  legal::Scenario renamed = s;
  renamed.name += " (renamed)";
  const legal::FactKey key = legal::fact_key(s);
  if (legal::fact_key(copy) != key || legal::fact_key(renamed) != key) {
    fail("fact-key-stability",
         "copying or renaming a scenario changed its fact key");
  }
  if (const std::string d = diff_determinations(
          serial, evaluator_.engine().evaluate(renamed));
      !d.empty()) {
    fail("fact-key-soundness", "renaming changed the engine's answer: " + d);
  }
  const legal::Determination renamed_hit = evaluator_.evaluate(renamed);
  if (const std::string d = diff_determinations(serial, renamed_hit);
      !d.empty() || renamed_hit.scenario_name != renamed.name) {
    fail("fact-key-soundness",
         "a cache hit for a renamed scenario differs from the engine: " + d +
             "scenario_name '" + renamed_hit.scenario_name + "'");
  }
  compared(3);
  if (legal::jurisdiction_index(s.jurisdiction) ==
      legal::kUnlistedJurisdiction) {
    legal::Scenario moved = s;
    moved.jurisdiction += "-moved";  // still not a listed code
    if (const std::string d = diff_determinations(
            serial, evaluator_.engine().evaluate(moved));
        !d.empty()) {
      fail("fact-key-soundness",
           "moving between unlisted jurisdiction codes changed the engine's "
           "answer: " + d);
    }
    compared(1);
  }

  // --- 3. linter agreement ---------------------------------------------
  // 3a: no planned process.  The linter must demand process exactly when
  // the engine does, and must say nothing else about this trivial plan.
  {
    const lint::LintReport lint_report =
        lint::PlanLinter{}.lint(single_step_plan(s, legal::ProcessKind::kNone));
    const std::size_t expect_missing = serial.needs_process ? 1 : 0;
    if (lint_report.count(lint::kRuleMissingProcess) != expect_missing ||
        lint_report.error_count != expect_missing) {
      std::ostringstream os;
      os << "engine verdict '" << serial.verdict() << "' (requires "
         << to_string(serial.required_process) << ") but the linter raised "
         << lint_report.count(lint::kRuleMissingProcess)
         << " missing-process / " << lint_report.error_count
         << " total errors on the processless plan";
      fail("lint-agreement", os.str());
    }
  }
  // 3b: exactly the required instrument, obtained on warrant-grade
  // facts, executed inside its window: never missing-process, and clean
  // except the structural Title III proof gap.
  if (serial.needs_process) {
    const lint::LintReport lint_report =
        lint::PlanLinter{}.lint(single_step_plan(s, serial.required_process));
    const std::size_t expect_proof_gap =
        serial.required_process == legal::ProcessKind::kWiretapOrder ? 1 : 0;
    if (lint_report.count(lint::kRuleMissingProcess) != 0 ||
        lint_report.count(lint::kRuleProofGap) != expect_proof_gap ||
        lint_report.error_count != expect_proof_gap) {
      std::ostringstream os;
      os << "plan holding the required " << to_string(serial.required_process)
         << " still lints dirty: " << lint_report.error_count << " errors ("
         << lint_report.count(lint::kRuleMissingProcess)
         << " missing-process, " << lint_report.count(lint::kRuleProofGap)
         << " proof-gap)";
      fail("lint-agreement", os.str());
    }
  }
  compared(2);

  // --- 4. suppression agreement ----------------------------------------
  // Held nothing: the item (and a lawful child derived from it) must be
  // suppressed exactly when the engine demands process — the runtime
  // mirror of the linter's static taint closure.
  {
    legal::ProvenanceGraph graph;
    legal::AcquisitionRecord parent;
    parent.id = EvidenceId{1};
    parent.description = s.name;
    parent.required = serial.required_process;
    parent.held = legal::ProcessKind::kNone;
    (void)graph.add(parent);
    legal::AcquisitionRecord child;
    child.id = EvidenceId{2};
    child.description = "derived analysis";
    child.required = legal::ProcessKind::kNone;  // itself lawful
    child.held = legal::ProcessKind::kNone;
    child.derived_from = {EvidenceId{1}};
    (void)graph.add(child);

    const legal::SuppressionReport sup = legal::analyze_suppression(graph);
    if (sup.is_suppressed(EvidenceId{1}) != serial.needs_process) {
      std::ostringstream os;
      os << "engine verdict '" << serial.verdict()
         << "' but a processless acquisition is "
         << (sup.is_suppressed(EvidenceId{1}) ? "suppressed" : "admissible");
      fail("suppression-agreement", os.str());
    }
    if (sup.is_suppressed(EvidenceId{2}) != serial.needs_process) {
      fail("suppression-agreement",
           "fruit-of-the-poisonous-tree closure disagrees with the engine "
           "verdict for a lawful derived item");
    }
  }
  // Held exactly the required instrument: always admissible.
  {
    legal::ProvenanceGraph graph;
    legal::AcquisitionRecord rec;
    rec.id = EvidenceId{1};
    rec.description = s.name;
    rec.required = serial.required_process;
    rec.held = serial.required_process;
    (void)graph.add(rec);
    const legal::SuppressionReport sup = legal::analyze_suppression(graph);
    if (sup.is_suppressed(EvidenceId{1})) {
      fail("suppression-agreement",
           "holding exactly the required instrument still got the evidence "
           "suppressed");
    }
  }
  compared(3);
}

CheckReport DifferentialChecker::run(const CheckOptions& options) const {
  LEXFOR_OBS_SPAN(obs::Level::kInfo, "check", "differential",
                  "trials=" + std::to_string(options.trials),
                  obs::no_sim_time());
  CheckReport report;

  const auto full = [&] {
    return options.max_violations != 0 &&
           report.violations.size() >= options.max_violations;
  };

  // Library corpus first: every table scene, with its declared verdict
  // cross-checked against the engine before the N-version comparison.
  for (const auto& scene : legal::library::scenes()) {
    const legal::Scenario s = scene.build();
    const legal::Determination d = evaluator_.engine().evaluate(s);
    ++report.comparisons;
    if (d.needs_process != scene.expects_process() ||
        d.required_process != scene.expected_process) {
      report.violations.push_back(Violation{
          "scene-table-verdict",
          "scene '" + std::string(scene.id) + "' expects " +
              std::string(to_string(scene.expected_process)) +
              " but the engine derived " +
              std::string(to_string(d.required_process)),
          describe_scenario(s), options.seed, 0});
      report_to_flight(report.violations.back());
    }
    check_scenario(s, options.seed, 0, report);
    if (full()) return report;
  }

  // Seeded random walks.
  for (std::size_t trial = 0; trial < options.trials; ++trial) {
    LEXFOR_OBS_COUNTER_ADD("check.trials", 1);
    ++report.trials;
    // Each trial owns a counter-derived stream, so trial k is the same
    // walk no matter how many trials run or in what order.
    Rng rng = Rng::sub_stream(options.seed, trial);
    ScenarioGen gen(rng);
    legal::Scenario s =
        gen.generate("fuzz-" + std::to_string(options.seed) + "-" +
                     std::to_string(trial));
    check_scenario(s, options.seed, trial, report);
    if (full()) return report;
    for (std::size_t step = 0; step < options.walk_steps; ++step) {
      const legal::ScenarioFingerprint before = legal::fingerprint(s);
      const legal::FactKey key_before = legal::fact_key(s);
      const std::string juris_before = s.jurisdiction;
      const bool changed = gen.mutate(s);
      if (changed && legal::fingerprint(s) == before) {
        report.violations.push_back(Violation{
            "fingerprint-sensitivity",
            "a doctrine-field mutation left the canonical fingerprint "
            "unchanged (field not serialized?)",
            describe_scenario(s), options.seed, trial});
        report_to_flight(report.violations.back());
      }
      // Every fact change must move the key, except a step that moved
      // the jurisdiction itself between two unlisted codes.
      const bool unlisted_move =
          s.jurisdiction != juris_before &&
          legal::jurisdiction_index(juris_before) ==
              legal::kUnlistedJurisdiction &&
          legal::jurisdiction_index(s.jurisdiction) ==
              legal::kUnlistedJurisdiction;
      if (changed && !unlisted_move && legal::fact_key(s) == key_before) {
        report.violations.push_back(Violation{
            "fact-key-sensitivity",
            "a doctrine-field mutation left the fact key unchanged (fact "
            "missing from LEXFOR_FACT_LIST?)",
            describe_scenario(s), options.seed, trial});
        report_to_flight(report.violations.back());
      }
      report.comparisons += 2;
      check_scenario(s, options.seed, trial, report);
      if (full()) return report;
    }
  }
  return report;
}

CheckReport run_differential(const CheckOptions& options) {
  return DifferentialChecker{}.run(options);
}

}  // namespace lexfor::check
