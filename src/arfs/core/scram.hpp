// SCRAM: System Control Reconfiguration Analysis and Management kernel.
//
// The SCRAM (paper sections 3, 5.2, 6.3) is the external-reconfiguration
// mechanism: it receives component-failure and environment-change signals,
// determines the necessary reconfiguration from a statically defined table
// (here: the ReconfigSpec's choose function), and drives every application
// through the SFTA phase sequence of Table 1 by writing the
// configuration_status values halt / prepare / initialize on successive
// frames. It coordinates inter-application dependencies by withholding a
// phase directive from a dependent application until the applications it
// depends on have completed that phase (section 6.3).
//
// Failures arriving *during* a reconfiguration are handled by one of the two
// policies of section 5.3: buffered until the current reconfiguration
// completes, or addressed immediately by re-choosing the target once
// applications have met their postconditions.
//
// The kernel is a pure table interpreter: all behaviour is determined by the
// ReconfigSpec, which is what lets the static analyses in arfs::analysis
// speak about the running system.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/core/app.hpp"
#include "arfs/core/reconfig_spec.hpp"
#include "arfs/env/factor.hpp"
#include "arfs/failstop/detector.hpp"

namespace arfs::core {

/// Section 5.3's two options for failures that occur during reconfiguration.
enum class ReconfigPolicy {
  kBuffer,     ///< Queue the trigger; handle it after completion.
  kImmediate,  ///< Re-choose the target now (postconditions already met).
};

/// How application stages are synchronized across the system.
enum class PhaseBarrier {
  /// Table 1's canonical protocol: the SCRAM signals one stage per frame
  /// span and waits for every application to complete it before signaling
  /// the next (a global barrier per stage).
  kGlobal,
  /// Section 6.3's relaxation: "allowing the applications to complete
  /// multiple sequential stages without signals from the SCRAM" — each
  /// application advances through halt/prepare/initialize at its own pace;
  /// cross-application ordering is enforced only by declared dependencies.
  kRelaxed,
};

struct ScramOptions {
  ReconfigPolicy policy = ReconfigPolicy::kBuffer;
  PhaseBarrier barrier = PhaseBarrier::kGlobal;
  /// Journal-aware recovery handling: when a kLossyRecovery signal arrives
  /// and choose() keeps the current configuration (the failure itself needs
  /// no transition), run a full SFTA *onto the current configuration*
  /// anyway, so every application re-establishes its precondition from the
  /// rolled-back stable state instead of silently resuming on top of it.
  /// Off by default: lossy recoveries are then absorbed like any other
  /// trigger that choose() declines.
  bool reinit_on_lossy_recovery = false;
};

/// The SCRAM's plan for one frame.
struct FramePlan {
  /// Empty (idle, or an SFTA's frame 0), or one directive per declared app
  /// in spec.apps() order.
  std::vector<Directive> directives;
  /// True exactly in an SFTA's frame 0: the trigger was accepted this frame
  /// and every application's current AFTA counts as interrupted.
  bool trigger_accepted = false;
  /// True when the immediate policy re-chose the target this frame;
  /// applications past the halt stage must rewind to halted.
  bool retargeted = false;
  ConfigId target{};  ///< Meaningful while reconfiguring.
};

/// What the SCRAM concluded at the end of a frame.
struct FrameOutcome {
  bool completed = false;  ///< Reconfiguration finished this frame.
  ConfigId from{};
  ConfigId to{};
};

struct ScramStats {
  std::uint64_t triggers_received = 0;  ///< Signals delivered to the SCRAM.
  std::uint64_t reconfigs_started = 0;
  std::uint64_t reconfigs_completed = 0;
  std::uint64_t triggers_absorbed = 0;  ///< choose() returned current config.
  std::uint64_t retargets = 0;          ///< Immediate-policy target changes.
  std::uint64_t buffered_triggers = 0;  ///< Signals queued mid-reconfig.
  std::uint64_t dwell_blocked_frames = 0;
  /// Re-initialization SFTAs forced by lossy-recovery signals (the target
  /// equals the current configuration).
  std::uint64_t lossy_reinits = 0;
  /// Quorum durability transitions observed: cohorts that lost their live
  /// majority (kQuorumLost) and cohorts that regained it (kQuorumDurable).
  /// Both flow through the ordinary trigger path as well.
  std::uint64_t quorum_losses = 0;
  std::uint64_t quorum_restores = 0;
};

/// Dense end-of-frame stage report: entry i (spec.apps() order) is true iff
/// app i was issued a phase directive this frame and completed that stage.
/// Empty when no app reports anything.
using PhaseReport = std::vector<bool>;

/// Every mutable value of the kernel, in the one form the kernel works on
/// and a SystemCheckpoint holds (the spec and options are
/// construction-time constants). The per-app tables are indexed by
/// position in spec.apps(); the system digest walks them in ascending
/// AppId order.
struct ScramState {
  enum class Phase { kIdle, kSignaled, kHalt, kPrepare, kInitialize };
  /// Per-application stage progression for the relaxed barrier.
  enum class AppStage { kHalt, kPrepare, kInitialize, kDone };

  ConfigId current{};
  ConfigId target{};
  Phase phase = Phase::kIdle;
  /// Completion of the current phase (global barrier).
  std::vector<bool> done;
  /// Relaxed barrier: each app's current stage (empty while no
  /// reconfiguration tracks stages) and per-stage completions (needed to
  /// evaluate dependencies).
  std::vector<AppStage> stage;
  std::vector<bool> halt_done;
  std::vector<bool> prepare_done;
  std::vector<bool> init_done;
  bool pending_trigger = false;  ///< Buffered/deferred evaluation request.
  /// A lossy-recovery signal awaits evaluation; consumed by try_start (it
  /// upgrades an absorbed trigger into a re-initialization when the option
  /// asks for that, and clears whenever any reconfiguration starts — the
  /// SFTA re-initializes every application either way).
  bool lossy_pending = false;
  /// Cycle at which the in-progress reconfiguration started (its frame 0).
  std::optional<Cycle> active_start;
  Cycle dwell_until = 0;  ///< No new reconfiguration before this.
  ScramStats stats;
};

class Scram {
 public:
  /// `spec` must outlive the Scram and must validate().
  explicit Scram(const ReconfigSpec& spec, ScramOptions options = {});

  /// Start-of-frame step: consumes the frame's failure and environment
  /// signals, runs the trigger/dwell/retarget logic, and returns the
  /// directive for every application. The plan is the kernel's own reused
  /// buffer: valid until the next begin_frame.
  [[nodiscard]] const FramePlan& begin_frame(
      Cycle cycle, SimTime now,
      const std::vector<failstop::FailureSignal>& hw_signals,
      const std::vector<env::EnvChangeSignal>& env_signals,
      const env::EnvState& env_now);

  /// End-of-frame step: `phase_done` reports which applications completed
  /// the stage they were directed to run this frame.
  [[nodiscard]] FrameOutcome end_frame(Cycle cycle,
                                       const PhaseReport& phase_done);

  [[nodiscard]] ConfigId current_config() const { return state_.current; }
  [[nodiscard]] bool reconfiguring() const {
    return state_.phase != ScramState::Phase::kIdle;
  }
  [[nodiscard]] std::optional<ConfigId> target_config() const;
  [[nodiscard]] const ScramStats& stats() const { return state_.stats; }
  [[nodiscard]] ReconfigPolicy policy() const { return options_.policy; }

  /// Cycle at which the in-progress reconfiguration started (its frame 0).
  [[nodiscard]] std::optional<Cycle> active_start_cycle() const;

  /// The kernel's whole mutable state, read in place.
  [[nodiscard]] const ScramState& state() const { return state_; }
  /// Rewinds the kernel to `state`. Precondition: `state` is the state of a
  /// kernel of the same spec (every table one entry per declared app,
  /// checked before anything is written).
  void restore_state(const ScramState& state);

 private:
  using Phase = ScramState::Phase;
  using AppStage = ScramState::AppStage;

  /// Evaluates choose() and either starts a reconfiguration or absorbs the
  /// trigger. Returns true if a reconfiguration started.
  bool try_start(Cycle cycle, const env::EnvState& env_now, FramePlan& plan);

  /// Fills plan.directives for the global-barrier protocol.
  void plan_global(FramePlan& plan);
  /// Fills plan.directives for the relaxed protocol.
  void plan_relaxed(FramePlan& plan);
  /// Leaves plan.directives one per app toward the target, keeping the
  /// previous frame's when they already head there; callers set each kind.
  void reset_directives(FramePlan& plan);
  /// Sets each planned directive's target_spec and target_host from the
  /// target configuration (both stay unset for an app that is off there).
  void set_targets(FramePlan& plan) const;

  [[nodiscard]] FrameOutcome end_frame_global(Cycle cycle,
                                              const PhaseReport& phase_done);
  [[nodiscard]] FrameOutcome end_frame_relaxed(Cycle cycle,
                                               const PhaseReport& phase_done);
  FrameOutcome complete(Cycle cycle);
  /// Forgets every per-app phase completion and stage.
  void clear_progress();

  /// Whether every dependency of `app` for `phase` is satisfied by
  /// `completed` (per app in spec.apps() order: finished that phase).
  [[nodiscard]] bool deps_met(AppId app, DepPhase phase,
                              const std::vector<bool>& completed) const;

  /// Directive kind for the current phase.
  [[nodiscard]] DirectiveKind phase_directive() const;
  [[nodiscard]] DepPhase phase_dep() const;

  const ReconfigSpec& spec_;
  ScramOptions options_;
  ScramState state_;
  /// begin_frame's result, reused so planning allocates nothing.
  FramePlan plan_;
  /// The configuration plan_.directives' targets were set for.
  ConfigId targets_of_{};
};

}  // namespace arfs::core
