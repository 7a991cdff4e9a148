#include "legal/export.h"

#include <sstream>

#include "obs/export.h"

namespace lexfor::legal {
namespace {

void append_string_array(std::ostringstream& os,
                         const std::vector<std::string>& items) {
  os << '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) os << ',';
    os << json_escape(items[i]);
  }
  os << ']';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  obs::append_json_escaped(out, s);
  out.push_back('"');
  return out;
}

std::string to_json(const Determination& d) {
  std::ostringstream os;
  os << '{';
  os << "\"scenario\":" << json_escape(d.scenario_name) << ',';
  os << "\"needs_process\":" << (d.needs_process ? "true" : "false") << ',';
  os << "\"required_process\":"
     << json_escape(std::string(to_string(d.required_process))) << ',';
  os << "\"required_proof\":"
     << json_escape(std::string(to_string(d.required_proof))) << ',';
  os << "\"statutes\":[";
  for (std::size_t i = 0; i < d.governing_statutes.size(); ++i) {
    if (i != 0) os << ',';
    os << json_escape(std::string(to_string(d.governing_statutes[i])));
  }
  os << "],\"exceptions\":[";
  for (std::size_t i = 0; i < d.exceptions_applied.size(); ++i) {
    if (i != 0) os << ',';
    os << json_escape(std::string(to_string(d.exceptions_applied[i])));
  }
  os << "],\"rationale\":";
  append_string_array(os, d.rationale);
  os << ",\"citations\":";
  append_string_array(os, d.citations);
  os << '}';
  return os.str();
}

std::string to_json(const SuppressionReport& r) {
  std::ostringstream os;
  os << "{\"suppressed\":" << r.suppressed_count
     << ",\"admissible\":" << r.admissible_count << ",\"findings\":[";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    if (i != 0) os << ',';
    const auto& f = r.findings[i];
    os << "{\"id\":" << f.id.value()
       << ",\"suppressed\":" << (f.suppressed ? "true" : "false")
       << ",\"reason\":" << json_escape(f.reason) << '}';
  }
  os << "]}";
  return os.str();
}

std::string to_json(const FeasibilityReport& r) {
  std::ostringstream os;
  os << "{\"technique\":" << json_escape(r.technique_name)
     << ",\"feasibility\":"
     << json_escape(std::string(to_string(r.feasibility)))
     << ",\"bottleneck\":"
     << json_escape(std::string(to_string(r.bottleneck)))
     << ",\"bottleneck_step\":" << json_escape(r.bottleneck_step)
     << ",\"steps\":[";
  for (std::size_t i = 0; i < r.steps.size(); ++i) {
    if (i != 0) os << ',';
    os << "{\"name\":" << json_escape(r.steps[i].step_name)
       << ",\"determination\":" << to_json(r.steps[i].determination) << '}';
  }
  os << "],\"recommendations\":";
  append_string_array(os, r.recommendations);
  os << '}';
  return os.str();
}

}  // namespace lexfor::legal
