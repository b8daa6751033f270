#include "arfs/props/properties.hpp"

#include <sstream>

namespace arfs::props {

using trace::ReconfState;
using trace::SysStateView;

PropertyResult check_sp1(const trace::SysTrace& s,
                         const trace::Reconfiguration& r) {
  // EXISTS app: reconf_st(app) at start_c = interrupted.
  if (!trace::any_interrupted(s.at(r.start_c))) {
    return {false, "SP1: no application is interrupted at start_c=" +
                       std::to_string(r.start_c)};
  }
  // FORALL apps at start_c - 1: normal (system start counts as normal).
  if (r.start_c > 0 && !trace::all_normal(s.at(r.start_c - 1))) {
    return {false, "SP1: some application is not normal at start_c-1"};
  }
  // FORALL apps at end_c: normal.
  if (!trace::all_normal(s.at(r.end_c))) {
    return {false, "SP1: some application is not normal at end_c=" +
                       std::to_string(r.end_c)};
  }
  // FORALL c, app: start_c < c < end_c => reconf_st(app) != normal.
  for (Cycle c = r.start_c + 1; c < r.end_c; ++c) {
    for (const auto& [app, snap] : s.at(c).apps) {
      if (snap.reconf_st == ReconfState::kNormal) {
        return {false, "SP1: app " + std::to_string(app.value()) +
                           " is normal inside R at cycle " +
                           std::to_string(c)};
      }
    }
  }
  return {true, {}};
}

PropertyResult check_sp2(const trace::SysTrace& s,
                         const trace::Reconfiguration& r,
                         const core::ReconfigSpec& spec) {
  const ConfigId from = s.at(r.start_c).svclvl;
  const ConfigId to = s.at(r.end_c).svclvl;
  for (Cycle c = r.start_c; c <= r.end_c; ++c) {
    if (spec.choose(from, s.at(c).env) == to) return {true, {}};
  }
  std::ostringstream os;
  os << "SP2: no instant in [" << r.start_c << "," << r.end_c
     << "] has choose(" << from.value() << ", env) = " << to.value();
  return {false, os.str()};
}

PropertyResult check_sp3(const trace::SysTrace& s,
                         const trace::Reconfiguration& r,
                         const core::ReconfigSpec& spec) {
  const ConfigId from = s.at(r.start_c).svclvl;
  const ConfigId to = s.at(r.end_c).svclvl;
  const std::optional<Cycle> bound = spec.transition_bound(from, to);
  if (!bound.has_value()) {
    return {false, "SP3: no transition bound T(" +
                       std::to_string(from.value()) + "," +
                       std::to_string(to.value()) + ") is defined"};
  }
  const SimDuration took =
      frames_to_time(trace::duration_frames(r), s.frame_length());
  const SimDuration allowed = frames_to_time(*bound, s.frame_length());
  if (took > allowed) {
    return {false, "SP3: reconfiguration took " + std::to_string(took) +
                       "us > bound " + std::to_string(allowed) + "us"};
  }
  return {true, {}};
}

PropertyResult check_sp4(const trace::SysTrace& s,
                         const trace::Reconfiguration& r,
                         const core::ReconfigSpec& spec) {
  const SysStateView end = s.at(r.end_c);
  const core::Configuration& target = spec.config(end.svclvl);
  for (const auto& [app, snap] : end.apps) {
    if (!target.runs(app)) continue;  // off in Cj: no precondition required
    if (!snap.precondition_ok) {
      return {false, "SP4: app " + std::to_string(app.value()) +
                         " has not established its precondition at end_c"};
    }
    if (snap.spec != target.spec_of(app)) {
      return {false, "SP4: app " + std::to_string(app.value()) +
                         " is not operating under its Cj specification"};
    }
  }
  return {true, {}};
}

ReconfigVerdict check_all(const trace::SysTrace& s,
                          const trace::Reconfiguration& r,
                          const core::ReconfigSpec& spec) {
  ReconfigVerdict v;
  v.reconfig = r;
  v.sp1 = check_sp1(s, r);
  v.sp2 = check_sp2(s, r, spec);
  v.sp3 = check_sp3(s, r, spec);
  v.sp4 = check_sp4(s, r, spec);
  return v;
}

}  // namespace arfs::props
