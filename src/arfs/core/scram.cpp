#include "arfs/core/scram.hpp"

#include <algorithm>

#include "arfs/common/check.hpp"
#include "arfs/common/hash.hpp"
#include "arfs/common/log.hpp"

namespace arfs::core {

namespace {

void clear_flags(std::vector<bool>& flags) {
  std::fill(flags.begin(), flags.end(), false);
}

bool any_flag(const std::vector<bool>& flags) {
  return std::find(flags.begin(), flags.end(), true) != flags.end();
}

/// Fills `out` with the AppIds (ascending) whose flag is set.
void flagged_ids(const ReconfigSpec& spec, const std::vector<bool>& flags,
                 std::vector<AppId>& out) {
  out.clear();
  for (const std::size_t pos : spec.apps_by_id()) {
    if (flags[pos]) out.push_back(spec.apps()[pos].id);
  }
}

void set_flags(const ReconfigSpec& spec, const std::vector<AppId>& ids,
               std::vector<bool>& flags) {
  clear_flags(flags);
  for (const AppId id : ids) {
    const std::optional<std::size_t> pos = spec.app_index(id);
    require(pos.has_value(), "scram checkpoint names an undeclared app");
    flags[*pos] = true;
  }
}

}  // namespace

Scram::Scram(const ReconfigSpec& spec, ScramOptions options)
    : spec_(spec), options_(options), current_(spec.initial_config()) {
  spec.validate();
  const std::size_t n = spec.apps().size();
  done_.assign(n, false);
  halt_done_.assign(n, false);
  prepare_done_.assign(n, false);
  init_done_.assign(n, false);
}

void Scram::clear_progress() {
  clear_flags(done_);
  stage_.clear();
  clear_flags(halt_done_);
  clear_flags(prepare_done_);
  clear_flags(init_done_);
}

std::optional<ConfigId> Scram::target_config() const {
  if (phase_ == Phase::kIdle) return std::nullopt;
  return target_;
}

std::optional<Cycle> Scram::active_start_cycle() const { return active_start_; }

DirectiveKind Scram::phase_directive() const {
  switch (phase_) {
    case Phase::kHalt:       return DirectiveKind::kHalt;
    case Phase::kPrepare:    return DirectiveKind::kPrepare;
    case Phase::kInitialize: return DirectiveKind::kInitialize;
    default:                 return DirectiveKind::kNone;
  }
}

DepPhase Scram::phase_dep() const {
  switch (phase_) {
    case Phase::kHalt:       return DepPhase::kHalt;
    case Phase::kPrepare:    return DepPhase::kPrepare;
    default:                 return DepPhase::kInitialize;
  }
}

bool Scram::deps_met(AppId app, DepPhase phase,
                     const std::vector<bool>& completed) const {
  return spec_.dependencies().all_constraints_on(
      app, phase, target_, [&](const Dependency& c) {
        const std::optional<std::size_t> pos = spec_.app_index(c.independent);
        return pos.has_value() && completed[*pos];
      });
}

bool Scram::try_start(Cycle cycle, const env::EnvState& env_now,
                      FramePlan& plan) {
  if (spec_.dwell_frames() > 0 && cycle < dwell_until_) {
    ++stats_.dwell_blocked_frames;
    return false;  // pending_trigger_ stays set; retried next frame
  }
  ConfigId chosen = spec_.choose(current_, env_now);
  if (chosen == current_) {
    if (!(lossy_pending_ && options_.reinit_on_lossy_recovery)) {
      pending_trigger_ = false;
      lossy_pending_ = false;
      ++stats_.triggers_absorbed;
      return false;
    }
    // A lossy recovery rolled some processor's stable state back to an
    // older commit boundary; resuming the current configuration without an
    // SFTA would run applications whose precondition no longer holds.
    // Reconfigure onto the current configuration itself: the halt /
    // prepare / initialize sequence re-establishes every precondition from
    // the recovered state.
    ++stats_.lossy_reinits;
  }
  require(spec_.has_config(chosen),
          "choose() returned an undeclared configuration");

  pending_trigger_ = false;
  lossy_pending_ = false;
  target_ = chosen;
  phase_ = Phase::kSignaled;
  active_start_ = cycle;
  clear_progress();
  plan.trigger_accepted = true;
  plan.target = target_;
  ++stats_.reconfigs_started;
  log_info("scram", "cycle ", cycle, ": reconfiguration ",
           current_.value(), " -> ", target_.value(), " accepted");
  return true;
}

void Scram::set_targets(FramePlan& plan) const {
  // One walk of the target's assignment and placement maps in AppId order
  // (validate() gives both the same keys, all declared apps) instead of two
  // tree lookups per app on the frames that reconfigure.
  const Configuration& target_cfg = spec_.config(target_);
  auto assigned = target_cfg.assignment.begin();
  auto placed = target_cfg.placement.begin();
  for (const std::size_t pos : spec_.apps_by_id()) {
    if (assigned == target_cfg.assignment.end()) break;
    if (assigned->first != spec_.apps()[pos].id) continue;  // off there
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
  if (plan.directives.size() == n && targets_of_ == target_) return;
  plan.directives.clear();
  for (std::size_t i = 0; i < n; ++i) {
    Directive d;
    d.target_config = target_;
    plan.directives.push_back(d);
  }
  set_targets(plan);
  targets_of_ = target_;
}

void Scram::plan_global(FramePlan& plan) {
  reset_directives(plan);
  const DirectiveKind kind = phase_directive();
  const DepPhase dep_phase = phase_dep();

  const std::vector<AppDecl>& apps = spec_.apps();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    plan.directives[i].kind =
        done_[i] || !deps_met(apps[i].id, dep_phase, done_)
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
    switch (stage_.at(i)) {
      case AppStage::kHalt:
        d.kind = deps_met(app, DepPhase::kHalt, halt_done_)
                     ? DirectiveKind::kHalt
                     : DirectiveKind::kNone;
        break;
      case AppStage::kPrepare:
        d.kind = deps_met(app, DepPhase::kPrepare, prepare_done_)
                     ? DirectiveKind::kPrepare
                     : DirectiveKind::kNone;
        break;
      case AppStage::kInitialize:
        d.kind = deps_met(app, DepPhase::kInitialize, init_done_)
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
  stats_.triggers_received += signal_count;
  for (const failstop::FailureSignal& s : hw_signals) {
    if (s.kind == failstop::SignalKind::kLossyRecovery) {
      lossy_pending_ = true;  // sticky until an SFTA (re)initializes apps
    } else if (s.kind == failstop::SignalKind::kQuorumLost) {
      ++stats_.quorum_losses;
    } else if (s.kind == failstop::SignalKind::kQuorumDurable) {
      ++stats_.quorum_restores;
    }
  }

  if (signal_count > 0) {
    if (phase_ == Phase::kIdle) {
      pending_trigger_ = true;
    } else if (options_.policy == ReconfigPolicy::kBuffer) {
      stats_.buffered_triggers += signal_count;
      pending_trigger_ = true;
    } else {
      // Immediate policy (section 5.3 option 1): the postconditions either
      // are or will be established by the halt stage; re-choose the target.
      const ConfigId chosen = spec_.choose(current_, env_now);
      if (chosen != target_) {
        ++stats_.retargets;
        log_info("scram", "cycle ", cycle, ": retarget ", target_.value(),
                 " -> ", chosen.value());
        target_ = chosen;
        if (options_.barrier == PhaseBarrier::kGlobal) {
          if (phase_ == Phase::kPrepare || phase_ == Phase::kInitialize) {
            // Work toward the old target is void; rerun prepare toward the
            // new target. Applications past halt rewind to halted.
            phase_ = Phase::kPrepare;
            clear_flags(done_);
            plan.retargeted = true;
          }
          // kSignaled / kHalt: the halt stage is target-independent.
        } else {
          // Relaxed: every application past its halt stage re-prepares.
          bool any_rewound = false;
          for (AppStage& stage : stage_) {
            if (stage == AppStage::kInitialize || stage == AppStage::kDone) {
              stage = AppStage::kPrepare;
              any_rewound = true;
            }
          }
          if (any_rewound || any_flag(prepare_done_)) {
            clear_flags(prepare_done_);
            clear_flags(init_done_);
            plan.retargeted = true;
          }
        }
      }
    }
  }

  // Idle with a pending (new or buffered or dwell-deferred) trigger: decide.
  if (phase_ == Phase::kIdle && pending_trigger_) {
    plan.directives.clear();
    try_start(cycle, env_now, plan);
    // Frame 0 of Table 1: signal receipt only, no application directives.
    return plan;
  }

  if (phase_ == Phase::kIdle) {
    plan.directives.clear();
    return plan;
  }
  plan.target = target_;

  if (phase_ == Phase::kSignaled) {
    // Frame 1 begins the halt stage.
    phase_ = Phase::kHalt;
    clear_flags(done_);
    if (options_.barrier == PhaseBarrier::kRelaxed) {
      stage_.assign(spec_.apps().size(), AppStage::kHalt);
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
  outcome.from = current_;
  outcome.to = target_;
  current_ = target_;
  phase_ = Phase::kIdle;
  clear_progress();
  active_start_.reset();
  dwell_until_ = cycle + 1 + spec_.dwell_frames();
  // Re-evaluate once at completion: signals consumed while reconfiguring may
  // leave the environment demanding a further transition (section 5.3's
  // buffered option), and design-time choose transforms (safe interposition)
  // rely on the deferred demand being picked up here. If the current
  // configuration is already the proper choice, the evaluation is absorbed.
  pending_trigger_ = true;
  ++stats_.reconfigs_completed;
  log_info("scram", "cycle ", cycle, ": reconfiguration to ",
           current_.value(), " complete");
  return outcome;
}

FrameOutcome Scram::end_frame_global(Cycle cycle,
                                     const PhaseReport& phase_done) {
  FrameOutcome outcome;
  for (std::size_t i = 0; i < phase_done.size(); ++i) {
    if (phase_done[i]) done_[i] = true;
  }
  if (std::find(done_.begin(), done_.end(), false) != done_.end()) {
    return outcome;  // phase incomplete
  }

  switch (phase_) {
    case Phase::kHalt:
      phase_ = Phase::kPrepare;
      clear_flags(done_);
      return outcome;
    case Phase::kPrepare:
      phase_ = Phase::kInitialize;
      clear_flags(done_);
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
  if (stage_.empty()) return outcome;
  for (std::size_t i = 0; i < phase_done.size(); ++i) {
    if (!phase_done[i]) continue;
    switch (stage_[i]) {
      case AppStage::kHalt:
        halt_done_[i] = true;
        stage_[i] = AppStage::kPrepare;
        break;
      case AppStage::kPrepare:
        prepare_done_[i] = true;
        stage_[i] = AppStage::kInitialize;
        break;
      case AppStage::kInitialize:
        init_done_[i] = true;
        stage_[i] = AppStage::kDone;
        break;
      case AppStage::kDone:
        break;
    }
  }

  for (const AppStage stage : stage_) {
    if (stage != AppStage::kDone) return outcome;
  }
  return complete(cycle);
}

FrameOutcome Scram::end_frame(Cycle cycle, const PhaseReport& phase_done) {
  if (phase_ == Phase::kIdle || phase_ == Phase::kSignaled) return {};
  require(phase_done.empty() || phase_done.size() == spec_.apps().size(),
          "phase report must cover every declared app");
  if (options_.barrier == PhaseBarrier::kGlobal) {
    return end_frame_global(cycle, phase_done);
  }
  return end_frame_relaxed(cycle, phase_done);
}

void Scram::checkpoint_into(Checkpoint& cp) const {
  cp.current = current_;
  cp.target = target_;
  cp.phase = phase_;
  flagged_ids(spec_, done_, cp.done);
  cp.stage.clear();
  if (!stage_.empty()) {
    for (const std::size_t pos : spec_.apps_by_id()) {
      cp.stage.emplace_back(spec_.apps()[pos].id, stage_[pos]);
    }
  }
  flagged_ids(spec_, halt_done_, cp.halt_done);
  flagged_ids(spec_, prepare_done_, cp.prepare_done);
  flagged_ids(spec_, init_done_, cp.init_done);
  cp.pending_trigger = pending_trigger_;
  cp.lossy_pending = lossy_pending_;
  cp.active_start = active_start_;
  cp.dwell_until = dwell_until_;
  cp.stats = stats_;
}

void Scram::restore_state(const Checkpoint& cp) {
  current_ = cp.current;
  target_ = cp.target;
  phase_ = cp.phase;
  set_flags(spec_, cp.done, done_);
  stage_.clear();
  if (!cp.stage.empty()) {
    require(cp.stage.size() == spec_.apps().size(),
            "scram checkpoint stage table does not match the spec");
    stage_.resize(cp.stage.size());
    for (const auto& [id, stage] : cp.stage) {
      const std::optional<std::size_t> pos = spec_.app_index(id);
      require(pos.has_value(), "scram checkpoint names an undeclared app");
      stage_[*pos] = stage;
    }
  }
  set_flags(spec_, cp.halt_done, halt_done_);
  set_flags(spec_, cp.prepare_done, prepare_done_);
  set_flags(spec_, cp.init_done, init_done_);
  pending_trigger_ = cp.pending_trigger;
  lossy_pending_ = cp.lossy_pending;
  active_start_ = cp.active_start;
  dwell_until_ = cp.dwell_until;
  stats_ = cp.stats;
}

/// The digest's read of a live kernel: the dense per-app tables walked in
/// ascending AppId order.
class Scram::LiveState {
 public:
  explicit LiveState(const Scram& k) : k_(k) {}
  [[nodiscard]] ConfigId current() const { return k_.current_; }
  [[nodiscard]] ConfigId target() const { return k_.target_; }
  [[nodiscard]] Phase phase() const { return k_.phase_; }
  /// `visit(id, stage)` per app; nothing while no stage is tracked.
  template <class Visit>
  void each_stage(Visit visit) const {
    if (k_.stage_.empty()) return;
    for (const std::size_t pos : k_.spec_.apps_by_id()) {
      visit(k_.spec_.apps()[pos].id, k_.stage_[pos]);
    }
  }
  /// `visit(id)` per app that completed the current phase.
  template <class Visit>
  void each_done(Visit visit) const {
    each_set(k_.done_, visit);
  }
  /// `visit(id)` per app that completed halt, then prepare, then init.
  template <class Visit>
  void each_stage_done(Visit visit) const {
    for (const auto* flags :
         {&k_.halt_done_, &k_.prepare_done_, &k_.init_done_}) {
      each_set(*flags, visit);
    }
  }
  [[nodiscard]] bool pending_trigger() const { return k_.pending_trigger_; }
  [[nodiscard]] bool lossy_pending() const { return k_.lossy_pending_; }
  [[nodiscard]] std::optional<Cycle> active_start() const {
    return k_.active_start_;
  }
  [[nodiscard]] Cycle dwell_until() const { return k_.dwell_until_; }
  [[nodiscard]] const ScramStats& stats() const { return k_.stats_; }

 private:
  template <class Visit>
  void each_set(const std::vector<bool>& flags, Visit& visit) const {
    for (const std::size_t pos : k_.spec_.apps_by_id()) {
      if (flags[pos]) visit(k_.spec_.apps()[pos].id);
    }
  }

  const Scram& k_;
};

namespace {

/// The digest's read of a checkpoint: its tables are already sparse and in
/// ascending AppId order. Same accessors as Scram::LiveState.
class CheckpointState {
 public:
  explicit CheckpointState(const Scram::Checkpoint& cp) : cp_(cp) {}
  [[nodiscard]] ConfigId current() const { return cp_.current; }
  [[nodiscard]] ConfigId target() const { return cp_.target; }
  [[nodiscard]] auto phase() const { return cp_.phase; }
  template <class Visit>
  void each_stage(Visit visit) const {
    for (const auto& [id, stage] : cp_.stage) visit(id, stage);
  }
  template <class Visit>
  void each_done(Visit visit) const {
    for (const AppId id : cp_.done) visit(id);
  }
  template <class Visit>
  void each_stage_done(Visit visit) const {
    for (const auto* ids :
         {&cp_.halt_done, &cp_.prepare_done, &cp_.init_done}) {
      for (const AppId id : *ids) visit(id);
    }
  }
  [[nodiscard]] bool pending_trigger() const { return cp_.pending_trigger; }
  [[nodiscard]] bool lossy_pending() const { return cp_.lossy_pending; }
  [[nodiscard]] std::optional<Cycle> active_start() const {
    return cp_.active_start;
  }
  [[nodiscard]] Cycle dwell_until() const { return cp_.dwell_until; }
  [[nodiscard]] const ScramStats& stats() const { return cp_.stats; }

 private:
  const Scram::Checkpoint& cp_;
};

/// The one kernel hash body, over either state view.
template <class State>
std::uint64_t fold_kernel(std::uint64_t h, const State& s) {
  h = fnv_mix(h, s.current().value());
  h = fnv_mix(h, s.target().value());
  h = fnv_mix(h, static_cast<std::uint64_t>(s.phase()));
  // The completion sets hash as (app, 1) pairs: the image of maps that
  // only ever held `true`.
  const auto flagged = [&h](AppId app) {
    h = fnv_mix(h, app.value());
    h = fnv_mix(h, 1);
  };
  s.each_done(flagged);
  s.each_stage([&h](AppId app, auto stage) {
    h = fnv_mix(h, app.value());
    h = fnv_mix(h, static_cast<std::uint64_t>(stage));
  });
  s.each_stage_done(flagged);
  h = fnv_mix(h, s.pending_trigger() ? 1 : 0);
  h = fnv_mix(h, s.lossy_pending() ? 1 : 0);
  h = fnv_mix(h, s.active_start().has_value() ? *s.active_start() + 1 : 0);
  h = fnv_mix(h, s.dwell_until());
  const ScramStats& stats = s.stats();
  for (const std::uint64_t word :
       {stats.triggers_received, stats.reconfigs_started,
        stats.reconfigs_completed, stats.triggers_absorbed, stats.retargets,
        stats.buffered_triggers, stats.dwell_blocked_frames,
        stats.lossy_reinits, stats.quorum_losses, stats.quorum_restores}) {
    h = fnv_mix(h, word);
  }
  return h;
}

}  // namespace

std::uint64_t fold_scram(std::uint64_t h, const Scram& scram) {
  return fold_kernel(h, Scram::LiveState(scram));
}

std::uint64_t fold_scram(std::uint64_t h, const Scram::Checkpoint& scram) {
  return fold_kernel(h, CheckpointState(scram));
}

}  // namespace arfs::core
