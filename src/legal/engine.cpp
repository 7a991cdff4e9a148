#include "legal/engine.h"

#include <algorithm>
#include <sstream>

#include "legal/caselaw.h"
#include "obs/obs.h"

namespace lexfor::legal {
namespace {

void add_citations(std::vector<std::string>& into,
                   const std::vector<std::string>& from) {
  for (const auto& c : from) {
    if (std::find(into.begin(), into.end(), c) == into.end()) into.push_back(c);
  }
}

}  // namespace

Determination ComplianceEngine::evaluate(const Scenario& s) const {
  LEXFOR_OBS_COUNTER_ADD("legal.evaluations", 1);
  LEXFOR_OBS_PROFILE("legal.engine.evaluate");
  LEXFOR_OBS_SPAN(obs::Level::kInfo, "legal", "evaluate",
                  "scenario=" + s.name, obs::no_sim_time());
  Determination d;
  d.scenario_name = s.name;
  d.rep = analyze_rep(s);

  const StatuteAnalysis statutes = analyze_statutes(s, d.rep);
  const std::vector<ExceptionFinding> exceptions =
      applicable_exceptions(s, d.rep, statutes);

  d.governing_statutes = statutes.applicable();
  for ([[maybe_unused]] const auto st : d.governing_statutes) {
    LEXFOR_OBS_EVENT(obs::Level::kInfo, "legal", "statute_applies",
                     "statute=" + std::string(to_string(st)),
                     obs::no_sim_time());
  }
  for (const auto& n : statutes.notes) d.rationale.push_back(n);
  add_citations(d.citations, statutes.citations);
  add_citations(d.citations, d.rep.citations);
  for (const auto& r : d.rep.reasons) d.rationale.push_back(r);

  // Which regimes do the fired exceptions excuse?
  bool fourth_excused = false, wiretap_excused = false, pen_trap_excused = false,
       sca_excused = false;
  for (const auto& e : exceptions) {
    d.exceptions_applied.push_back(e.kind);
    LEXFOR_OBS_EVENT(obs::Level::kInfo, "legal", "exception_applied",
                     "exception=" + std::string(to_string(e.kind)),
                     obs::no_sim_time());
    d.rationale.push_back(e.rationale);
    add_citations(d.citations, e.citations);
    fourth_excused = fourth_excused || e.excuses_fourth;
    wiretap_excused = wiretap_excused || e.excuses_wiretap;
    pen_trap_excused = pen_trap_excused || e.excuses_pen_trap;
    sca_excused = sca_excused || e.excuses_sca;
  }

  // Compose the per-regime requirements into the single minimum process.
  ProcessKind required = ProcessKind::kNone;

  if (statutes.wiretap_act && !wiretap_excused) {
    required = stricter(required, ProcessKind::kWiretapOrder);
    d.rationale.emplace_back(
        "Title III requires an interception order for real-time content "
        "acquisition absent an exception");
  }
  if (statutes.pen_trap && !pen_trap_excused) {
    required = stricter(required, ProcessKind::kCourtOrder);
    d.rationale.emplace_back(
        "the Pen/Trap statute requires a court order to install a pen "
        "register or trap-and-trace device absent an exception");
  }
  if (statutes.sca && !sca_excused) {
    const ProcessKind sca_req = sca_required_process(s.data);
    required = stricter(required, sca_req);
    std::ostringstream os;
    os << "the SCA's compelled-disclosure ladder requires at least a "
       << to_string(sca_req) << " for " << to_string(s.data);
    d.rationale.push_back(os.str());
  }
  if (statutes.fourth_amendment && !fourth_excused) {
    required = stricter(required, ProcessKind::kSearchWarrant);
    d.rationale.emplace_back(
        "a Fourth Amendment search of protected material requires a "
        "warrant supported by probable cause absent an exception");
  }

  d.required_process = required;
  d.needs_process = required != ProcessKind::kNone;
  d.required_proof = required_standard(required);

  if (!d.needs_process) {
    d.rationale.emplace_back(
        "no regime imposes an unexcused process requirement; the "
        "acquisition may proceed without warrant/court order/subpoena");
  }
  // The audit-level record of the derivation: scenario -> verdict.
  LEXFOR_OBS_EVENT(obs::Level::kAudit, "legal", "verdict",
                   "scenario=" + s.name + ",verdict=" + d.verdict() +
                       ",process=" + std::string(to_string(d.required_process)),
                   obs::no_sim_time());
  return d;
}

std::string Determination::report() const {
  std::ostringstream os;
  os << "Scenario: " << scenario_name << '\n';
  os << "Verdict:  " << verdict();
  if (needs_process) {
    os << " (minimum process: " << to_string(required_process)
       << "; standard: " << to_string(required_proof) << ")";
  }
  os << '\n';
  if (!governing_statutes.empty()) {
    os << "Governing law:";
    for (const auto st : governing_statutes) os << ' ' << to_string(st) << ';';
    os << '\n';
  }
  if (!exceptions_applied.empty()) {
    os << "Exceptions:";
    for (const auto e : exceptions_applied) os << ' ' << to_string(e) << ';';
    os << '\n';
  }
  os << "Rationale:\n";
  for (const auto& r : rationale) os << "  - " << r << '\n';
  if (!citations.empty()) {
    os << "Citations:\n";
    for (const auto& id : citations) {
      if (auto c = find_case(id)) {
        os << "  * " << format_citation(*c) << '\n';
      } else {
        os << "  * " << id << '\n';
      }
    }
  }
  return os.str();
}

}  // namespace lexfor::legal
