#include "arfs/trace/reconfigs.hpp"

namespace arfs::trace {

std::vector<Reconfiguration> get_reconfigs(const SysTrace& s) {
  std::vector<Reconfiguration> out;
  // Plain flag + cycle instead of std::optional: GCC 12 issues a spurious
  // -Wmaybe-uninitialized through the optional's storage here.
  bool open = false;
  Cycle start = 0;
  for (Cycle c = 0; c < s.size(); ++c) {
    const SysStateView state = s.at(c);
    if (!open) {
      if (!all_normal(state)) {
        open = true;
        start = c;
      }
      continue;
    }
    if (all_normal(state)) {
      Reconfiguration r;
      r.start_c = start;
      r.end_c = c;
      r.from = s.at(start).svclvl;
      r.to = state.svclvl;
      out.push_back(r);
      open = false;
    }
  }
  return out;
}

std::optional<Cycle> incomplete_reconfig(const SysTrace& s) {
  std::optional<Cycle> start;
  for (Cycle c = 0; c < s.size(); ++c) {
    if (!start.has_value()) {
      if (!all_normal(s.at(c))) start = c;
    } else if (all_normal(s.at(c))) {
      start.reset();
    }
  }
  return start;
}

Cycle duration_frames(const Reconfiguration& r) {
  return r.end_c - r.start_c + 1;
}

}  // namespace arfs::trace
