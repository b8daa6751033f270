#include "arfs/core/scram.hpp"

#include <algorithm>

#include "arfs/common/check.hpp"
#include "arfs/common/log.hpp"

namespace arfs::core {

namespace {

void clear_flags(std::vector<bool>& flags) {
  std::fill(flags.begin(), flags.end(), false);
}

bool any_flag(const std::vector<bool>& flags) {
  return std::find(flags.begin(), flags.end(), true) != flags.end();
}

}  // namespace

Scram::Scram(const ReconfigSpec& spec, ScramOptions options)
    : spec_(spec), options_(options) {
  spec.validate();
  const std::size_t n = spec.apps().size();
  state_.current = spec.initial_config();
  state_.done.assign(n, false);
  state_.halt_done.assign(n, false);
  state_.prepare_done.assign(n, false);
  state_.init_done.assign(n, false);
}

void Scram::clear_progress() {
  clear_flags(state_.done);
  state_.stage.clear();
  clear_flags(state_.halt_done);
  clear_flags(state_.prepare_done);
  clear_flags(state_.init_done);
}

std::optional<ConfigId> Scram::target_config() const {
  if (state_.phase == Phase::kIdle) return std::nullopt;
  return state_.target;
}

std::optional<Cycle> Scram::active_start_cycle() const {
  return state_.active_start;
}

DirectiveKind Scram::phase_directive() const {
  switch (state_.phase) {
    case Phase::kHalt:       return DirectiveKind::kHalt;
    case Phase::kPrepare:    return DirectiveKind::kPrepare;
    case Phase::kInitialize: return DirectiveKind::kInitialize;
    default:                 return DirectiveKind::kNone;
  }
}

DepPhase Scram::phase_dep() const {
  switch (state_.phase) {
    case Phase::kHalt:       return DepPhase::kHalt;
    case Phase::kPrepare:    return DepPhase::kPrepare;
    default:                 return DepPhase::kInitialize;
  }
}

bool Scram::deps_met(AppId app, DepPhase phase,
                     const std::vector<bool>& completed) const {
  return spec_.dependencies().all_constraints_on(
      app, phase, state_.target, [&](const Dependency& c) {
        const std::optional<std::size_t> pos = spec_.app_index(c.independent);
        return pos.has_value() && completed[*pos];
      });
}

bool Scram::try_start(Cycle cycle, const env::EnvState& env_now,
                      FramePlan& plan) {
  if (spec_.dwell_frames() > 0 && cycle < state_.dwell_until) {
    ++state_.stats.dwell_blocked_frames;
    return false;  // pending_trigger stays set; retried next frame
  }
  ConfigId chosen = spec_.choose(state_.current, env_now);
  if (chosen == state_.current) {
    if (!(state_.lossy_pending && options_.reinit_on_lossy_recovery)) {
      state_.pending_trigger = false;
      state_.lossy_pending = false;
      ++state_.stats.triggers_absorbed;
      return false;
    }
    // A lossy recovery rolled some processor's stable state back to an
    // older commit boundary; resuming the current configuration without an
    // SFTA would run applications whose precondition no longer holds.
    // Reconfigure onto the current configuration itself: the halt /
    // prepare / initialize sequence re-establishes every precondition from
    // the recovered state.
    ++state_.stats.lossy_reinits;
  }
  require(spec_.has_config(chosen),
          "choose() returned an undeclared configuration");

  state_.pending_trigger = false;
  state_.lossy_pending = false;
  state_.target = chosen;
  state_.phase = Phase::kSignaled;
  state_.active_start = cycle;
  clear_progress();
  plan.trigger_accepted = true;
  plan.target = state_.target;
  ++state_.stats.reconfigs_started;
  log_info("scram", "cycle ", cycle, ": reconfiguration ",
           state_.current.value(), " -> ", state_.target.value(), " accepted");
  return true;
}

void Scram::set_targets(FramePlan& plan) const {
  // One walk of the target's assignment and placement maps in AppId order
  // (validate() gives both the same keys, all declared apps) instead of two
  // tree lookups per app on the frames that reconfigure.
  const Configuration& target_cfg = spec_.config(state_.target);
  auto assigned = target_cfg.assignment.begin();
  auto placed = target_cfg.placement.begin();
  for (const auto& [pos, id] : spec_.apps_by_id()) {
    if (assigned == target_cfg.assignment.end()) break;
    if (assigned->first != id) continue;  // off there
    Directive& d = plan.directives[pos];
    d.target_spec = assigned->second;
    d.target_host = placed->second;
    ++assigned;
    ++placed;
  }
}

void Scram::reset_directives(FramePlan& plan) {
  // An SFTA directs every app toward one target for three frames or more;
  // the targets are set on its first directive frame and after a retarget.
  const std::size_t n = spec_.apps().size();
  if (plan.directives.size() == n && targets_of_ == state_.target) return;
  plan.directives.clear();
  for (std::size_t i = 0; i < n; ++i) {
    Directive d;
    d.target_config = state_.target;
    plan.directives.push_back(d);
  }
  set_targets(plan);
  targets_of_ = state_.target;
}

void Scram::plan_global(FramePlan& plan) {
  reset_directives(plan);
  const DirectiveKind kind = phase_directive();
  const DepPhase dep_phase = phase_dep();

  const std::vector<AppDecl>& apps = spec_.apps();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    plan.directives[i].kind =
        state_.done[i] || !deps_met(apps[i].id, dep_phase, state_.done)
            ? DirectiveKind::kNone
            : kind;
  }
}

void Scram::plan_relaxed(FramePlan& plan) {
  reset_directives(plan);
  const std::vector<AppDecl>& apps = spec_.apps();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const AppId app = apps[i].id;
    Directive& d = plan.directives[i];
    switch (state_.stage.at(i)) {
      case AppStage::kHalt:
        d.kind = deps_met(app, DepPhase::kHalt, state_.halt_done)
                     ? DirectiveKind::kHalt
                     : DirectiveKind::kNone;
        break;
      case AppStage::kPrepare:
        d.kind = deps_met(app, DepPhase::kPrepare, state_.prepare_done)
                     ? DirectiveKind::kPrepare
                     : DirectiveKind::kNone;
        break;
      case AppStage::kInitialize:
        d.kind = deps_met(app, DepPhase::kInitialize, state_.init_done)
                     ? DirectiveKind::kInitialize
                     : DirectiveKind::kNone;
        break;
      case AppStage::kDone:
        d.kind = DirectiveKind::kNone;
        break;
    }
  }
}

const FramePlan& Scram::begin_frame(
    Cycle cycle, SimTime now,
    const std::vector<failstop::FailureSignal>& hw_signals,
    const std::vector<env::EnvChangeSignal>& env_signals,
    const env::EnvState& env_now) {
  (void)now;
  FramePlan& plan = plan_;
  // plan.directives keeps the previous frame's entries until this frame
  // is known to direct nobody (see reset_directives).
  plan.trigger_accepted = false;
  plan.retargeted = false;
  plan.target = ConfigId{};

  const std::size_t signal_count = hw_signals.size() + env_signals.size();
  state_.stats.triggers_received += signal_count;
  for (const failstop::FailureSignal& s : hw_signals) {
    if (s.kind == failstop::SignalKind::kLossyRecovery) {
      state_.lossy_pending = true;  // sticky until an SFTA (re)initializes apps
    } else if (s.kind == failstop::SignalKind::kQuorumLost) {
      ++state_.stats.quorum_losses;
    } else if (s.kind == failstop::SignalKind::kQuorumDurable) {
      ++state_.stats.quorum_restores;
    }
  }

  if (signal_count > 0) {
    if (state_.phase == Phase::kIdle) {
      state_.pending_trigger = true;
    } else if (options_.policy == ReconfigPolicy::kBuffer) {
      state_.stats.buffered_triggers += signal_count;
      state_.pending_trigger = true;
    } else {
      // Immediate policy (section 5.3 option 1): the postconditions either
      // are or will be established by the halt stage; re-choose the target.
      const ConfigId chosen = spec_.choose(state_.current, env_now);
      if (chosen != state_.target) {
        ++state_.stats.retargets;
        log_info("scram", "cycle ", cycle, ": retarget ", state_.target.value(),
                 " -> ", chosen.value());
        state_.target = chosen;
        if (options_.barrier == PhaseBarrier::kGlobal) {
          if (state_.phase == Phase::kPrepare ||
              state_.phase == Phase::kInitialize) {
            // Work toward the old target is void; rerun prepare toward the
            // new target. Applications past halt rewind to halted.
            state_.phase = Phase::kPrepare;
            clear_flags(state_.done);
            plan.retargeted = true;
          }
          // kSignaled / kHalt: the halt stage is target-independent.
        } else {
          // Relaxed: every application past its halt stage re-prepares.
          bool any_rewound = false;
          for (AppStage& stage : state_.stage) {
            if (stage == AppStage::kInitialize || stage == AppStage::kDone) {
              stage = AppStage::kPrepare;
              any_rewound = true;
            }
          }
          if (any_rewound || any_flag(state_.prepare_done)) {
            clear_flags(state_.prepare_done);
            clear_flags(state_.init_done);
            plan.retargeted = true;
          }
        }
      }
    }
  }

  // Idle with a pending (new or buffered or dwell-deferred) trigger: decide.
  if (state_.phase == Phase::kIdle && state_.pending_trigger) {
    plan.directives.clear();
    try_start(cycle, env_now, plan);
    // Frame 0 of Table 1: signal receipt only, no application directives.
    return plan;
  }

  if (state_.phase == Phase::kIdle) {
    plan.directives.clear();
    return plan;
  }
  plan.target = state_.target;

  if (state_.phase == Phase::kSignaled) {
    // Frame 1 begins the halt stage.
    state_.phase = Phase::kHalt;
    clear_flags(state_.done);
    if (options_.barrier == PhaseBarrier::kRelaxed) {
      state_.stage.assign(spec_.apps().size(), AppStage::kHalt);
    }
  }

  if (options_.barrier == PhaseBarrier::kGlobal) {
    plan_global(plan);
  } else {
    plan_relaxed(plan);
  }
  return plan;
}

FrameOutcome Scram::complete(Cycle cycle) {
  FrameOutcome outcome;
  outcome.completed = true;
  outcome.from = state_.current;
  outcome.to = state_.target;
  state_.current = state_.target;
  state_.phase = Phase::kIdle;
  clear_progress();
  state_.active_start.reset();
  state_.dwell_until = cycle + 1 + spec_.dwell_frames();
  // Re-evaluate once at completion: signals consumed while reconfiguring may
  // leave the environment demanding a further transition (section 5.3's
  // buffered option), and design-time choose transforms (safe interposition)
  // rely on the deferred demand being picked up here. If the current
  // configuration is already the proper choice, the evaluation is absorbed.
  state_.pending_trigger = true;
  ++state_.stats.reconfigs_completed;
  log_info("scram", "cycle ", cycle, ": reconfiguration to ",
           state_.current.value(), " complete");
  return outcome;
}

FrameOutcome Scram::end_frame_global(Cycle cycle,
                                     const PhaseReport& phase_done) {
  FrameOutcome outcome;
  for (std::size_t i = 0; i < phase_done.size(); ++i) {
    if (phase_done[i]) state_.done[i] = true;
  }
  if (std::find(state_.done.begin(), state_.done.end(), false) !=
      state_.done.end()) {
    return outcome;  // phase incomplete
  }

  switch (state_.phase) {
    case Phase::kHalt:
      state_.phase = Phase::kPrepare;
      clear_flags(state_.done);
      return outcome;
    case Phase::kPrepare:
      state_.phase = Phase::kInitialize;
      clear_flags(state_.done);
      return outcome;
    case Phase::kInitialize:
      // Every application established its precondition: the system starts
      // operating in the target configuration at this frame boundary.
      return complete(cycle);
    default:
      return outcome;
  }
}

FrameOutcome Scram::end_frame_relaxed(Cycle cycle,
                                      const PhaseReport& phase_done) {
  FrameOutcome outcome;
  if (state_.stage.empty()) return outcome;
  for (std::size_t i = 0; i < phase_done.size(); ++i) {
    if (!phase_done[i]) continue;
    switch (state_.stage[i]) {
      case AppStage::kHalt:
        state_.halt_done[i] = true;
        state_.stage[i] = AppStage::kPrepare;
        break;
      case AppStage::kPrepare:
        state_.prepare_done[i] = true;
        state_.stage[i] = AppStage::kInitialize;
        break;
      case AppStage::kInitialize:
        state_.init_done[i] = true;
        state_.stage[i] = AppStage::kDone;
        break;
      case AppStage::kDone:
        break;
    }
  }

  for (const AppStage stage : state_.stage) {
    if (stage != AppStage::kDone) return outcome;
  }
  return complete(cycle);
}

FrameOutcome Scram::end_frame(Cycle cycle, const PhaseReport& phase_done) {
  if (state_.phase == Phase::kIdle || state_.phase == Phase::kSignaled) {
    return {};
  }
  require(phase_done.empty() || phase_done.size() == spec_.apps().size(),
          "phase report must cover every declared app");
  if (options_.barrier == PhaseBarrier::kGlobal) {
    return end_frame_global(cycle, phase_done);
  }
  return end_frame_relaxed(cycle, phase_done);
}

void Scram::restore_state(const ScramState& state) {
  const std::size_t n = spec_.apps().size();
  require(state.done.size() == n && state.halt_done.size() == n &&
              state.prepare_done.size() == n && state.init_done.size() == n &&
              (state.stage.empty() || state.stage.size() == n),
          "scram state does not match the spec");
  state_ = state;
}

}  // namespace arfs::core
