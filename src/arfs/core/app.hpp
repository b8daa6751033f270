// Reconfigurable applications and application fault-tolerant actions.
//
// "The basic software building block is a reconfigurable application"
// (paper section 5.2). A reconfigurable application (section 5.3):
//   * responds to an external halt signal by establishing a prescribed
//     postcondition and halting in bounded time;
//   * responds to an external reconfiguration (prepare) signal by
//     establishing the precondition necessary for the new configuration in
//     bounded time;
//   * responds to an external start signal by starting operation in its
//     assigned configuration in bounded time.
//
// Each frame the application performs exactly one unit of work (an AFTA or
// one reconfiguration stage, section 6.1), reads inputs from stable storage
// at the start of the frame, and commits results at the end. The SCRAM's
// directive for the frame arrives through the configuration_status protocol;
// domain subclasses implement the do_* hooks, and this base class runs the
// phase state machine, tracks the Table 1 predicate flags, and reports phase
// completion back to the SCRAM.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/core/messaging.hpp"
#include "arfs/core/stable_region.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/trace/state.hpp"

namespace arfs::core {

/// The SCRAM's per-frame instruction to one application: the values of the
/// configuration_status variable (paper section 6.2: halt, prepare,
/// initialize), plus kNone for frames in which the application holds its
/// state (dependency waits) or operates normally.
enum class DirectiveKind { kNone, kHalt, kPrepare, kInitialize };

struct Directive {
  DirectiveKind kind = DirectiveKind::kNone;
  /// Specification the application will run under after the transition
  /// (nullopt = off). Meaningful for kPrepare and kInitialize.
  std::optional<SpecId> target_spec;
  /// Target configuration, for context-dependent behaviour.
  ConfigId target_config{};
  /// Host of the application in the target configuration; set exactly
  /// when target_spec is.
  ProcessorId target_host{};
};

/// Lets an application read other applications' committed stable variables
/// (paper section 6.2: applications read values produced by other
/// applications from stable storage at the start of each cycle).
class PeerReader {
 public:
  virtual ~PeerReader() = default;
  [[nodiscard]] virtual Expected<storage::Value> read_peer(
      AppId peer, const std::string& key) const = 0;
};

/// Read-only view of an application's digested state: phase state, spec,
/// Table 1 predicate flags and the domain words. Built on the stack by a
/// live application and by its checkpoint alike (view()).
struct AppView {
  trace::ReconfState state = trace::ReconfState::kNormal;
  std::optional<SpecId> spec;
  bool post_ok = false;
  bool trans_ok = false;
  bool pre_ok = false;
  std::span<const std::uint64_t> domain;
};

class ReconfigurableApp {
 public:
  /// Execution context for one frame. `own` is the application's stable
  /// region on its current execution host; nullptr when no running host
  /// exists (the application cannot execute this frame).
  struct Ctx {
    Cycle cycle = 0;
    SimTime now = 0;
    StableRegion* own = nullptr;
    const PeerReader* peers = nullptr;
    /// Message-passing endpoint (paper section 3); null only in bare unit
    /// tests that construct a Ctx by hand.
    Mailbox* mail = nullptr;
  };

  /// Result of one frame step.
  struct StepResult {
    SimDuration consumed = 0;  ///< Simulated execution time this frame.
    bool ok = true;            ///< False = application-level fault signal.
    bool phase_done = false;   ///< Reconfiguration stage completed.
    std::string fault_detail;
  };

  ReconfigurableApp(AppId id, std::string name);
  virtual ~ReconfigurableApp() = default;

  ReconfigurableApp(const ReconfigurableApp&) = delete;
  ReconfigurableApp& operator=(const ReconfigurableApp&) = delete;

  [[nodiscard]] AppId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] trace::ReconfState reconf_state() const { return state_; }
  [[nodiscard]] std::optional<SpecId> current_spec() const { return spec_; }

  /// Table 1 predicate flags, as established during the current
  /// reconfiguration. Reset when a reconfiguration begins.
  [[nodiscard]] bool postcondition_ok() const { return post_ok_; }
  [[nodiscard]] bool transition_ok() const { return trans_ok_; }
  [[nodiscard]] bool precondition_ok() const { return pre_ok_; }

  /// Assigns the spec for initial system start (before the first frame).
  void force_spec(std::optional<SpecId> spec) { spec_ = spec; }

  /// The SCRAM accepted a trigger: this application's current AFTA counts as
  /// interrupted (frame 0 of the SFTA).
  void mark_interrupted();

  /// The host processor fail-stopped: volatile context is gone. The
  /// application keeps its reconfiguration status (that lives in the SCRAM
  /// and stable storage), but domain subclasses drop cached state.
  void on_host_failure();

  /// The SCRAM completed the reconfiguration (start signal): the application
  /// resumes normal operation under `new_spec`.
  void start(std::optional<SpecId> new_spec);

  /// Immediate-policy retarget (section 5.3 option 1): work done toward the
  /// abandoned target is void; the application falls back to the halted
  /// state (its postcondition still holds) and will re-prepare.
  void rewind_to_halted();

  /// Runs this frame's unit of work according to `directive`.
  [[nodiscard]] StepResult frame_step(const Ctx& ctx,
                                      const Directive& directive);

  /// Frozen image of the phase state machine plus whatever the domain
  /// subclass packed through save_domain() — opaque 64-bit words, so every
  /// subclass (counters, doubles via bit_cast, a whole physics plant)
  /// checkpoints through one shape.
  struct Checkpoint {
    trace::ReconfState state = trace::ReconfState::kNormal;
    std::optional<SpecId> spec;
    bool post_ok = false;
    bool trans_ok = false;
    bool pre_ok = false;
    std::vector<std::uint64_t> domain;

    [[nodiscard]] AppView view() const;
  };
  /// Refreshes `cp` in place; its domain buffer keeps its capacity.
  void checkpoint_into(Checkpoint& cp) const;
  void restore_state(const Checkpoint& cp);
  /// The digested state, read in place; the domain words are packed into
  /// `domain` (cleared first — a reused buffer keeps this allocation-free
  /// once it has grown).
  [[nodiscard]] AppView view(std::vector<std::uint64_t>& domain) const;

 protected:
  // --- domain hooks -------------------------------------------------------
  /// One AFTA under the current specification. Only called with a live host.
  virtual StepResult do_work(const Ctx& ctx) = 0;

  /// Establish the postcondition and cease operation. Return true when the
  /// postcondition holds (usually in the first call). Only called with a
  /// live execution host; an application with no live host has trivially
  /// ceased operation and its halt is completed by the framework.
  virtual bool do_halt(const Ctx& ctx) = 0;

  /// Establish the condition to transition to `target_spec`.
  virtual bool do_prepare(const Ctx& ctx,
                          std::optional<SpecId> target_spec) = 0;

  /// Establish the precondition for `target_spec`: initialize all state so
  /// the first AFTA under the new specification can run.
  virtual bool do_initialize(const Ctx& ctx,
                             std::optional<SpecId> target_spec) = 0;

  /// Volatile-state reset on host failure; default does nothing.
  virtual void on_volatile_lost() {}

  /// Domain-state checkpoint hooks. save_domain appends the subclass's
  /// mutable state to `out` as 64-bit words (floats via std::bit_cast);
  /// load_domain reads the same words back in the same order. Defaults are
  /// empty for stateless applications. A subclass whose load does not
  /// consume exactly what its save produced fails the round-trip tests.
  virtual void save_domain(std::vector<std::uint64_t>& out) const {
    (void)out;
  }
  virtual void load_domain(const std::vector<std::uint64_t>& in) { (void)in; }

 private:
  AppId id_;
  std::string name_;
  trace::ReconfState state_ = trace::ReconfState::kNormal;
  std::optional<SpecId> spec_;
  bool post_ok_ = false;
  bool trans_ok_ = false;
  bool pre_ok_ = false;
};

}  // namespace arfs::core
