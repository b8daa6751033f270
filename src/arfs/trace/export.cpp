#include "arfs/trace/export.hpp"

#include <sstream>

namespace arfs::trace {

void write_csv(const SysTrace& s, std::ostream& os) {
  os << "cycle,time_us,svclvl,app,reconf_st,spec,host_running,"
        "postcondition,transition,precondition,env\n";
  for (Cycle c = 0; c < s.size(); ++c) {
    const SysStateView state = s.at(c);
    for (const auto& [app, snap] : state.apps) {
      os << state.cycle << ',' << state.time << ',' << state.svclvl.value()
         << ',' << app.value() << ',' << to_string(snap.reconf_st) << ',';
      if (snap.spec.has_value()) {
        os << snap.spec->value();
      } else {
        os << "off";
      }
      os << ',' << (snap.host_running ? 1 : 0) << ','
         << (snap.postcondition_ok ? 1 : 0) << ','
         << (snap.transition_ok ? 1 : 0) << ','
         << (snap.precondition_ok ? 1 : 0) << ','
         << env::to_string(state.env) << '\n';
    }
  }
}

void write_json(const SysTrace& s, std::ostream& os) {
  os << "{\n  \"frame_length_us\": " << s.frame_length() << ",\n";
  os << "  \"frames\": [\n";
  bool first_frame = true;
  for (Cycle c = 0; c < s.size(); ++c) {
    const SysStateView state = s.at(c);
    if (!first_frame) os << ",\n";
    first_frame = false;
    os << "    {\"cycle\": " << state.cycle << ", \"time_us\": " << state.time
       << ", \"svclvl\": " << state.svclvl.value() << ", \"apps\": {";
    bool first_app = true;
    for (const auto& [app, snap] : state.apps) {
      if (!first_app) os << ", ";
      first_app = false;
      os << "\"" << app.value() << "\": {\"st\": \""
         << to_string(snap.reconf_st) << "\", \"spec\": ";
      if (snap.spec.has_value()) {
        os << snap.spec->value();
      } else {
        os << "null";
      }
      os << ", \"host_running\": " << (snap.host_running ? "true" : "false")
         << ", \"post\": " << (snap.postcondition_ok ? "true" : "false")
         << ", \"trans\": " << (snap.transition_ok ? "true" : "false")
         << ", \"pre\": " << (snap.precondition_ok ? "true" : "false") << "}";
    }
    os << "}, \"env\": {";
    bool first_factor = true;
    for (const auto& [factor, value] : state.env) {
      if (!first_factor) os << ", ";
      first_factor = false;
      os << "\"" << factor.value() << "\": " << value;
    }
    os << "}}";
  }
  os << "\n  ],\n  \"reconfigurations\": [\n";
  bool first_reconfig = true;
  for (const Reconfiguration& r : get_reconfigs(s)) {
    if (!first_reconfig) os << ",\n";
    first_reconfig = false;
    os << "    {\"start_c\": " << r.start_c << ", \"end_c\": " << r.end_c
       << ", \"from\": " << r.from.value() << ", \"to\": " << r.to.value()
       << ", \"frames\": " << duration_frames(r) << "}";
  }
  os << "\n  ]\n}\n";
}

std::string render_phase_table(const SysTrace& s, const Reconfiguration& r) {
  std::ostringstream os;
  os << "SFTA phases: config " << r.from.value() << " -> " << r.to.value()
     << " (cycles " << r.start_c << ".." << r.end_c << ", "
     << duration_frames(r) << " frames)\n";
  os << "frame | cycle | app:status (predicates)\n";
  for (Cycle c = r.start_c; c <= r.end_c; ++c) {
    const SysStateView state = s.at(c);
    os << "  " << (c - r.start_c) << "   | " << c << "    | ";
    bool first = true;
    for (const auto& [app, snap] : state.apps) {
      if (!first) os << "; ";
      first = false;
      os << "a" << app.value() << ":" << to_string(snap.reconf_st);
      std::string preds;
      if (snap.postcondition_ok) preds += "post ";
      if (snap.transition_ok) preds += "trans ";
      if (snap.precondition_ok) preds += "pre ";
      if (!preds.empty()) {
        preds.pop_back();
        os << " (" << preds << ")";
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace arfs::trace
