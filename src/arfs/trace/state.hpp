// System-state snapshots: the concrete counterpart of the paper's sys_trace.
//
// The PVS model records, per cycle, each application's reconfiguration status
// (`reconf_st`), the system service level (`svclvl` — the current
// configuration), and the environment. Properties SP1-SP4 (paper Table 2) are
// predicates over exactly this data, so the snapshot captures it verbatim,
// plus the three per-frame predicate flags from Table 1 (application
// postconditions, transition conditions, preconditions) so the phase protocol
// itself can be checked and printed.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/env/environment.hpp"

namespace arfs::trace {

/// Per-application reconfiguration status at the end of a frame.
/// kNormal corresponds to the model's `normal`; kInterrupted to
/// `interrupted`; the remaining values are the intermediate, non-normal
/// stages of the SFTA phases (Table 1).
enum class ReconfState {
  kNormal,
  kInterrupted,    ///< Trigger accepted this frame; AFTA could not complete.
  kHalted,         ///< Postcondition established, application halted.
  kPrepared,       ///< Transition condition for the target established.
  kAwaitingStart,  ///< Precondition established; waiting for system start.
};

struct AppSnapshot {
  ReconfState reconf_st = ReconfState::kNormal;
  std::optional<SpecId> spec;  ///< Nullopt when the application is off.
  bool host_running = true;
  // Table 1 predicate flags, as established by the application this frame.
  bool postcondition_ok = false;
  bool transition_ok = false;
  bool precondition_ok = false;

  friend bool operator==(const AppSnapshot&, const AppSnapshot&) = default;
};

/// One application's row of a frame.
using AppRow = std::pair<AppId, AppSnapshot>;

/// Read view of one recorded frame. It borrows its rows and environment
/// from the trace (or SysState) it was taken from: a SysTrace's views
/// become invalid at its next append, so a caller that keeps a frame copies
/// it into a SysState.
struct SysStateView {
  Cycle cycle = 0;
  SimTime time = 0;            ///< Frame end instant.
  ConfigId svclvl{};           ///< Current configuration (service level).
  /// One row per application, sorted by ascending AppId.
  std::span<const AppRow> apps;
  const env::EnvState& env;
};

/// An owning snapshot of the whole system at the end of one frame: the row
/// type of hand-built traces (SysTrace::append) and of frames a caller
/// keeps past the trace's next append.
struct SysState {
  SysState() = default;
  /// Copies a viewed frame.
  explicit SysState(const SysStateView& v) { assign(v); }

  /// Copies a viewed frame into this one, reusing its row and environment
  /// storage.
  void assign(const SysStateView& v) {
    cycle = v.cycle;
    time = v.time;
    svclvl = v.svclvl;
    apps.assign(v.apps.begin(), v.apps.end());
    env = v.env;
  }

  /// Views this frame (implicit: every reader takes a view).
  operator SysStateView() const { return {cycle, time, svclvl, apps, env}; }

  Cycle cycle = 0;
  SimTime time = 0;            ///< Frame end instant.
  ConfigId svclvl{};           ///< Current configuration (service level).
  /// One row per application, sorted by ascending AppId.
  std::vector<AppRow> apps;
  env::EnvState env;
};

/// The row of `app` in `s`, or nullptr (binary search; rows are sorted).
[[nodiscard]] const AppSnapshot* find_app(const SysStateView& s, AppId app);
[[nodiscard]] AppSnapshot* find_app(SysState& s, AppId app);

[[nodiscard]] std::string to_string(ReconfState st);

/// True iff every application in the snapshot is in the normal state.
[[nodiscard]] bool all_normal(const SysStateView& s);

/// True iff at least one application is in the interrupted state.
[[nodiscard]] bool any_interrupted(const SysStateView& s);

}  // namespace arfs::trace
