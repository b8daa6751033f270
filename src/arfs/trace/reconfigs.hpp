// Extraction of reconfigurations from a trace: the model's get_reconfigs.
//
// Per the paper's informal reading of SP1, a reconfiguration R "begins at the
// same time any application in the system is no longer operating under Ci and
// ends when all applications are operating under Cj". Concretely on a
// recorded trace: start_c is a cycle where some application left the normal
// state (the previous cycle being all-normal), and end_c is the first
// subsequent cycle at which every application is normal again.
#pragma once

#include <optional>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/trace/recorder.hpp"

namespace arfs::trace {

struct Reconfiguration {
  Cycle start_c = 0;
  Cycle end_c = 0;
  ConfigId from{};  ///< svclvl at start_c.
  ConfigId to{};    ///< svclvl at end_c.
};

/// Calls `visit(r)` for every completed reconfiguration in the trace, in
/// time order, and returns the cycle at which a reconfiguration still in
/// progress when the trace ends started. The one walk behind get_reconfigs,
/// incomplete_reconfig and props::check_trace; it builds no list.
template <class Visit>
std::optional<Cycle> for_each_reconfig(const SysTrace& s, Visit&& visit) {
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
      visit(Reconfiguration{.start_c = start,
                            .end_c = c,
                            .from = s.at(start).svclvl,
                            .to = state.svclvl});
      open = false;
    }
  }
  if (!open) return std::nullopt;
  return start;
}

/// All completed reconfigurations in the trace, in time order. A
/// reconfiguration still in progress when the trace ends is excluded (it has
/// no end_c); use incomplete_reconfig() to detect that case.
[[nodiscard]] std::vector<Reconfiguration> get_reconfigs(const SysTrace& s);

/// If the trace ends mid-reconfiguration, the cycle at which that
/// reconfiguration started.
[[nodiscard]] std::optional<Cycle> incomplete_reconfig(const SysTrace& s);

/// Duration of R in frames, inclusive of both endpoints — the quantity SP3
/// multiplies by cycle_time: (end_c - start_c + 1).
[[nodiscard]] Cycle duration_frames(const Reconfiguration& r);

}  // namespace arfs::trace
