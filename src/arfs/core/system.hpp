// System: the complete architecture of paper Figure 1, assembled.
//
// Owns the computing platform (fail-stop processors + activity monitoring),
// the environment with its virtual monitor applications, the SCRAM on its
// own fail-stop processor, the reconfigurable applications, and the trace
// recorder. Each call to run_frame() executes one synchronous real-time
// frame end to end:
//
//   1. environment hooks advance physical models (e.g. the electrical
//      system) and publish factor values;
//   2. scheduled fault-plan events are applied (processor fail-stop,
//      repairs, environment changes, forced timing/software faults);
//   3. running processors heartbeat; the activity monitor raises processor-
//      failure signals after its detection threshold;
//   4. virtual factor monitors sample the environment and raise change
//      signals;
//   5. the SCRAM consumes the frame's signals and issues per-application
//      configuration_status directives (Table 1);
//   6. every application performs its one unit of work for the frame —
//      a normal AFTA or one reconfiguration stage — with budget enforcement
//      feeding the health monitor;
//   7. the SCRAM collects stage-completion reports and, when the last stage
//      finishes, starts the target configuration;
//   8. all processors commit stable storage and the end-of-frame system
//      state is appended to the trace.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/common/types.hpp"
#include "arfs/core/app.hpp"
#include "arfs/core/messaging.hpp"
#include "arfs/core/reconfig_spec.hpp"
#include "arfs/core/scram.hpp"
#include "arfs/env/environment.hpp"
#include "arfs/env/factor.hpp"
#include "arfs/failstop/detector.hpp"
#include "arfs/failstop/group.hpp"
#include "arfs/rtos/health.hpp"
#include "arfs/sim/clock.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/storage/durable/shipping.hpp"
#include "arfs/trace/recorder.hpp"

namespace arfs::core {

struct SystemOptions {
  SimDuration frame_length = 10'000;  ///< 10 ms frames by default.
  /// Frames of silence before the activity monitor reports a processor
  /// failure (detection latency).
  Cycle detection_threshold = 1;
  /// Probability that a *running* processor's heartbeat is lost in a given
  /// frame (bus glitches, scheduling jitter). With a threshold of 1 frame,
  /// every lost heartbeat is a false failure signal; higher thresholds
  /// trade detection latency for false-alarm immunity.
  double heartbeat_loss_prob = 0.0;
  /// Seed for the platform's noise processes (heartbeat loss).
  std::uint64_t noise_seed = 9001;
  ScramOptions scram;
  /// Retain full stable-storage commit history (post-mortem debugging).
  bool record_storage_history = false;
  /// Back every processor's stable storage with a durability engine
  /// (write-ahead journal + snapshots on deterministic in-memory devices).
  /// Fail-stop halts then crash the devices and reconcile the pollable
  /// store with what recovery reads back, and kJournal* fault-plan events
  /// become meaningful.
  bool durable_storage = false;
  /// Engine policy used when durable_storage is on.
  storage::durable::DurableOptions durability;
  /// Ship every durable processor's journal to a quorum replica cohort
  /// (storage::durable::quorum::QuorumGroup) over dedicated TDMA quorum
  /// slots, so region relocations move only the un-shipped journal tail
  /// instead of the full encoded state. Requires durable_storage.
  bool journal_shipping = false;
  /// Per-frame byte budget of each cohort member's quorum slot (the
  /// schedulable replication bandwidth; partial batches resume next frame).
  std::uint32_t ship_slot_bytes = 4096;
  /// Members of each processor's replica cohort, one dedicated TDMA quorum
  /// slot per member; the durability boundary is the majority-acknowledged
  /// commit id. The default one-member cohort is the warm standby: its
  /// majority is the lone member's own cursor. Must be at least 1; a size
  /// other than 1 requires journal_shipping.
  std::uint32_t quorum_replicas = 1;
  /// Record the per-frame sys_trace (needed for get_reconfigs and the
  /// SP1-SP4 checkers). Disable only for unbounded benchmark runs.
  bool record_trace = true;
};

struct SystemStats {
  std::uint64_t frames_run = 0;
  std::uint64_t fault_events_applied = 0;
  std::uint64_t region_relocations = 0;
  /// Reconfigurations that exceeded their T bound while still in progress
  /// (runtime SP3 watchdog; each counted once).
  std::uint64_t deadline_violations = 0;
  /// Heartbeats suppressed by the noise model.
  std::uint64_t heartbeats_lost = 0;
  /// Processor-failure signals raised for processors that were running
  /// (false alarms from the activity monitor under heartbeat noise).
  std::uint64_t false_alarms = 0;
  /// Processor-failure signals for genuinely failed processors.
  std::uint64_t true_detections = 0;
  /// Journal I/O faults armed on durable devices (sync-fail, torn write,
  /// bit flip). Events targeting non-durable processors are not counted.
  std::uint64_t journal_faults_injected = 0;
  /// Recoveries whose journal had a torn or corrupt tail truncated.
  std::uint64_t journal_truncations = 0;
  /// Fail-stop recoveries that rolled committed state back (truncated tail
  /// or discarded group-commit lag); each raises a kLossyRecovery signal.
  std::uint64_t lossy_recoveries = 0;

  // --- journal shipping (journal_shipping option) ---
  /// Shipping-slot polls across all channels and frames.
  std::uint64_t ship_slots_polled = 0;
  /// Journal bytes put on the bus by shipping: per-frame slots plus
  /// relocation catch-ups.
  std::uint64_t ship_bytes_total = 0;
  /// Bytes of that total moved during relocation catch-ups (the un-shipped
  /// tail a warm start still had to transfer).
  std::uint64_t relocation_catchup_bytes = 0;
  /// Region relocations served from a cohort member's replica.
  std::uint64_t warm_relocations = 0;
  /// Region relocations that moved the source's full encoded state (no
  /// replica cohort, or no member's fingerprint matched the source's).
  std::uint64_t full_copy_relocations = 0;
  /// Encoded bytes those full copies moved.
  std::uint64_t full_copy_bytes = 0;
  /// Encoded region bytes warm relocations did NOT move (the savings
  /// headline: what a full copy of the relocated region would have cost).
  std::uint64_t full_copy_bytes_avoided = 0;
  /// Cohort members reseeded from a full-state copy (lost cursors: lagged
  /// past the retained generation, lossy recovery, media fault).
  std::uint64_t ship_reseeds = 0;

  // --- quorum replication (quorum_replicas option) ---
  /// Cohort member fail-stops / repairs applied (fault plan or API).
  std::uint64_t quorum_member_failures = 0;
  std::uint64_t quorum_member_repairs = 0;
  /// Live-majority transitions: losses raised kQuorumLost toward the SCRAM,
  /// restorations raised kQuorumDurable.
  std::uint64_t quorum_losses = 0;
  std::uint64_t quorum_restores = 0;
};

/// A forced-fault flag of one app: kUnset until a frame looks it up (the
/// digest tells "never looked at" from "cleared").
enum class Forced : std::uint8_t { kUnset, kClear, kRaised };

/// Every mutable value of a System outside its processors, cohorts, SCRAM
/// and applications, in the one form the frame loop works on and a
/// SystemCheckpoint holds. The per-app tables are indexed by position in
/// the spec's apps(), as the System's are.
struct SystemState {
  SystemState() : SystemState(SystemOptions{}) {}
  /// A System's state before its constructor sizes the per-app tables:
  /// the clock, activity monitor, noise generator and trace set up from
  /// `options`, everything else empty.
  explicit SystemState(const SystemOptions& options);

  sim::VirtualClock clock;
  env::Environment environment;
  std::vector<env::FactorMonitor> monitors;
  failstop::ActivityMonitor activity;
  failstop::DetectorBank bank;
  rtos::HealthMonitor health;
  /// Each app's region host; empty before the first frame places them.
  std::vector<ProcessorId> region_host;
  /// Each app's forced-fault flags.
  std::vector<Forced> forced_overrun;
  std::vector<Forced> forced_fault;
  /// Flags raised by fault events naming apps the spec does not declare:
  /// never consumed, but part of the digested state. Sorted AppIds.
  std::vector<AppId> stray_overrun;
  std::vector<AppId> stray_fault;
  sim::FaultPlan fault_plan;  ///< Carries its consumption cursor.
  MessageRouter router;
  bool deadline_alarm_raised = false;
  Rng noise_rng;
  trace::SysTrace trace;
  SystemStats stats;
  bool started = false;
};

/// Frozen image of every piece of mutable state a mission touches: the
/// System's SystemState and its SCRAM's ScramState, each copied whole; the
/// processors (volatile + committed stores, durability devices) and replica
/// cohorts; and the applications (including their opaque domain words).
/// The configuration-time constants (spec, options, schedules, hooks,
/// cached keys, regions) are deliberately absent: a checkpoint is restored
/// into a System built by the same factory.
/// Its processors and cohorts are spares of the live ones: each processor
/// is a failstop::Processor::spare() with its own memory engine, and each
/// cohort a QuorumGroup on its spare processor's engine, so the image owns
/// everything it holds. The first refresh of an empty image builds them;
/// after that System::checkpoint_into copies the live objects into them
/// (restore_state) and System::restore copies them back the same way.
/// Move-only, but restorable any number of times, from several threads at
/// once (restore only reads the image, copying its device images into the
/// system's own devices), and refreshable in place.
/// The per-app tables of both states are indexed by spec position; the
/// image's own copy of the spec's app order says which AppId each position
/// holds, so the image hashes without its spec and may outlive it.
struct SystemCheckpoint {
  SystemState state;
  ScramState scram;
  std::map<ProcessorId, failstop::Processor> processors;
  /// Each cohort ships from the engine of its spare in `processors`.
  std::map<ProcessorId, storage::durable::quorum::QuorumGroup>
      quorum_channels;
  /// One image per app position, empty for an app not added yet.
  std::vector<std::optional<ReconfigurableApp::Checkpoint>> apps;
  /// The spec's apps_by_id(): each position and its AppId, in ascending
  /// AppId order (the order the digest walks the per-app tables). Empty
  /// in an empty image.
  std::vector<AppSlot> app_order;

  /// Order-sensitive FNV-1a digest over most of the checkpointed state; the
  /// live System::digest() runs the same hash body over the running system.
  /// It hashes, in this order:
  ///  * state.clock's frame and instant;
  ///  * per processor, in ascending id: fail-stop state, stable-store
  ///    fingerprint and commit epochs, volatile-store fingerprint, lost
  ///    epochs, failure cycle and count, and the durability engine (both
  ///    devices' sizes and every byte, the shipping words, the adaptive
  ///    controller);
  ///  * state.environment's values and change count, state.bank's pending
  ///    and raised counts, state.health's overrun, fault and event counts;
  ///  * every ScramState member: current, target, phase, done, stage,
  ///    halt_done, prepare_done, init_done (the tables per app in ascending
  ///    AppId), pending_trigger, lossy_pending, active_start, dwell_until
  ///    and stats;
  ///  * per application, in ascending AppId: phase state, spec, predicate
  ///    flags and domain words;
  ///  * state.region_host per app in ascending AppId; state.fault_plan's
  ///    size and cursor; state.forced_overrun merged with
  ///    state.stray_overrun, then state.forced_fault with
  ///    state.stray_fault, each set flag in ascending AppId;
  ///  * state.router's counters, state.deadline_alarm_raised,
  ///    state.noise_rng's state and state.trace's row count;
  ///  * per replica cohort: each member's replica (store fingerprint and
  ///    commit epochs, cursor, dictionary, partial tail) and standing, the
  ///    voter sets, commit id, leader and cohort stats;
  ///  * state.stats and state.started.
  /// Not hashed: the SystemState members state.monitors (each
  /// FactorMonitor's last value and seeded flag) and state.activity (the
  /// ActivityMonitor's watches); and, inside hashed members, the contents
  /// of state.router's mailboxes, state.bank's pending signals,
  /// state.health's events, state.environment's history and state.trace's
  /// rows, the self-checking pairs' counters, the last recovery reports,
  /// DurabilityStats, the engines' key interners and the replicas' Stats.
  /// Equal digests therefore mean equal hashed state, not bit-identical
  /// mission state.
  [[nodiscard]] std::uint64_t digest() const;
};

class System {
 public:
  /// `spec` must outlive the System and must validate(). Processors are
  /// created for every placement any configuration mentions, plus one
  /// dedicated processor for the SCRAM.
  explicit System(const ReconfigSpec& spec, SystemOptions options = {});
  ~System();  // out of line: SystemPeerReader is incomplete here

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Registers the implementation of a declared application. Every declared
  /// application must be added before the first frame runs.
  void add_app(std::unique_ptr<ReconfigurableApp> app);

  /// Installs the deterministic fault schedule.
  void set_fault_plan(sim::FaultPlan plan);

  /// Auto-publishes a processor's status (0 = running, 1 = failed) into the
  /// given environmental factor — the section 6.3 unification of component
  /// failures with environment changes. The factor must be declared in the
  /// spec.
  void bind_processor_factor(ProcessorId processor, FactorId factor);

  /// Hook called at the start of every frame, before fault injection; used
  /// by scenarios to advance physical models that feed the environment.
  using EnvHook = std::function<void(env::Environment&, Cycle, SimTime)>;
  void add_env_hook(EnvHook hook);

  /// Runs `frames` frames.
  void run(Cycle frames);
  /// Runs a single frame.
  void run_frame();

  /// Sets an environmental factor immediately (programmatic trigger).
  void set_factor(FactorId factor, std::int64_t value);

  // --- observers ---
  [[nodiscard]] const trace::SysTrace& trace() const { return state_.trace; }
  [[nodiscard]] const Scram& scram() const { return scram_; }
  [[nodiscard]] env::Environment& environment() {
    return state_.environment;
  }
  [[nodiscard]] failstop::ProcessorGroup& processors() { return group_; }
  [[nodiscard]] const sim::VirtualClock& clock() const {
    return state_.clock;
  }
  [[nodiscard]] ReconfigurableApp& app(AppId id);
  [[nodiscard]] const SystemStats& stats() const { return state_.stats; }
  [[nodiscard]] const rtos::HealthMonitor& health() const {
    return state_.health;
  }
  [[nodiscard]] ProcessorId scram_processor() const { return scram_proc_; }

  /// Processor currently holding `app`'s stable region.
  [[nodiscard]] ProcessorId region_host(AppId app) const;

  /// Message-passing statistics (paper section 3 communication).
  [[nodiscard]] const MessagingStats& messaging() const {
    return state_.router.stats();
  }

  // --- journal shipping (journal_shipping option) ---

  /// True when `p`'s journal ships to a replica cohort (every durable
  /// processor's does when the option is on).
  [[nodiscard]] bool has_ship_channel(ProcessorId p) const;
  /// The elected shipper-leader's replica of `p`'s durable store.
  /// Preconditions: has_ship_channel(p), and the cohort has a live member.
  [[nodiscard]] const storage::durable::ShippedReplica& ship_replica(
      ProcessorId p) const;
  struct ShipCatchUp {
    std::size_t bytes = 0;  ///< Journal bytes moved by the catch-up.
    bool reseeded = false;  ///< Cursor was lost; replica was full-copied.
  };
  /// Drains `p`'s remaining shippable tail into every live cohort member now
  /// (the same catch-up a relocation performs), reseeding any member whose
  /// cursor was lost from a full copy. `bytes` is the total moved;
  /// `reseeded` is true when any member reseeded.
  /// Precondition: has_ship_channel(p).
  ShipCatchUp ship_catch_up(ProcessorId p);

  // --- quorum replication (quorum_replicas option) ---

  /// The cohort shadowing `p`'s durable store. Changing it through the
  /// mutable overload bypasses the System's stats and SCRAM signals (the
  /// crash sweep's judge does so on missions it throws away).
  /// Precondition: has_ship_channel(p).
  [[nodiscard]] const storage::durable::quorum::QuorumGroup& quorum_group(
      ProcessorId p) const;
  [[nodiscard]] storage::durable::quorum::QuorumGroup& quorum_group(
      ProcessorId p);
  /// Fail-stops / repairs cohort member `member` of `p`'s quorum group.
  /// A transition that costs (restores) the live majority raises a
  /// kQuorumLost (kQuorumDurable) signal toward the SCRAM.
  /// Preconditions: has_ship_channel(p), member < the cohort's member count.
  void fail_quorum_member(ProcessorId p, std::uint32_t member);
  void repair_quorum_member(ProcessorId p, std::uint32_t member);

  // --- whole-system checkpoint/restore ---

  /// Freezes the system's complete mutable state into a fresh image:
  /// checkpoint_into() on an empty SystemCheckpoint. Precondition: when
  /// durable storage is on, every device is a MemoryBackend (in-memory
  /// engines).
  [[nodiscard]] SystemCheckpoint checkpoint() const;
  /// Refreshes `cp` to the system's state in place, the mirror of
  /// restore(): every table, store, trace and device image is
  /// copy-assigned into the one `cp` already holds (an empty `cp` first
  /// gets its spare processors and cohorts), so once `cp` has been
  /// refreshed from a state as large, nothing is allocated. Preconditions:
  /// checkpoint()'s, and `cp` is empty or an image of a System built by the
  /// same factory, at any frame (the same processors and cohorts).
  void checkpoint_into(SystemCheckpoint& cp) const;
  /// Rewinds this system to `cp` in place. Precondition: this System was
  /// built by the same factory as the one checkpointed (same spec, options,
  /// applications, and replica cohorts) — key sets must match exactly.
  /// The shapes are checked before anything is written: an image of
  /// another app order, processor set, cohort set, monitor count or set of
  /// added apps throws ContractViolation and leaves the system unchanged.
  void restore(const SystemCheckpoint& cp);
  /// Digest of the live mutable state; equals checkpoint().digest(). Reads
  /// the running system in place through the same hash body: no checkpoint
  /// is built and, once this thread's domain-word buffer has grown, nothing
  /// is allocated. The buffer is per thread, so concurrent digests share
  /// no scratch.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  class SystemPeerReader;

  void apply_fault_event(const sim::FaultEvent& event, Cycle cycle,
                         SimTime now);
  /// Raises a forced-fault flag named by a fault event.
  void raise_forced(AppId app, std::vector<Forced>& flags,
                    std::vector<AppId>& stray);
  /// Whether app `pos` executes this frame given its directive, and on
  /// which processor (`host`, set only when it does). Returns no
  /// std::optional<ProcessorId>: GCC builds a returned optional id in two
  /// stack stores and reloads them as one 8-byte word that the CPU cannot
  /// forward, a stall on every app of every frame.
  [[nodiscard]] bool execution_host(std::size_t pos,
                                    const Directive& directive,
                                    ProcessorId& host) const;
  void relocate_region_if_needed(std::size_t pos, ProcessorId to,
                                 Cycle cycle);
  /// `spec` as declared, looked up among app `pos`'s own specs first.
  [[nodiscard]] const FunctionalSpec& spec_of_app(std::size_t pos,
                                                  SpecId spec) const;
  /// Re-fetches every app's mailbox pointer from the router (after start
  /// and after every restore: the router's nodes may have been reused).
  void refresh_mailboxes();
  void record_snapshot(Cycle cycle, SimTime frame_end);
  void publish_processor_factors(SimTime now);
  /// One quorum ship slot of options_.ship_slot_bytes per (cohort,
  /// member), cohorts in processor order.
  void pump_quorum_channels();
  /// Adds one ship_round of `source`'s cohort to the shipping stats.
  void note_ship_round(
      ProcessorId source,
      const storage::durable::quorum::QuorumGroup::Round& round);

  // Configuration: fixed once the apps are added.
  const ReconfigSpec& spec_;
  SystemOptions options_;
  ProcessorId scram_proc_{};
  // Per-app tables, indexed by position in spec_.apps(); the frame loop
  // walks them in that order, the digest and trace rows in AppId order.
  std::vector<std::unique_ptr<ReconfigurableApp>> apps_;
  std::size_t apps_added_ = 0;
  /// Each app's stable region ("a<id>/" keys), built once at construction
  /// and bound to the app's execution host every frame; it remembers the
  /// KeyIds it resolved on that host's store.
  std::vector<StableRegion> regions_;
  /// The SCRAM's configuration_status keys as (app position, key) pairs,
  /// interned once in the SCRAM processor's store (ids survive restores;
  /// see StableStorage) and sorted by key name, so the SCRAM stages them
  /// in name order and each write appends to the store's pending list.
  std::vector<std::pair<std::size_t, storage::KeyId>> scram_status_key_;
  std::map<ProcessorId, FactorId> processor_factors_;
  std::vector<EnvHook> env_hooks_;
  std::unique_ptr<SystemPeerReader> peer_reader_;

  // Mutable state: the objects with their own copy bodies, and the rest
  // in one value.
  failstop::ProcessorGroup group_;
  Scram scram_;
  /// Replica cohorts (journal_shipping), keyed by source processor. Each
  /// member gets one quorum slot of options_.ship_slot_bytes per frame.
  /// A member's replica store is stable storage (§5.1), so replica state
  /// survives the member's fail-stop as the source's store does.
  std::map<ProcessorId, storage::durable::quorum::QuorumGroup>
      quorum_channels_;
  SystemState state_;

  /// Each app's router endpoint (see refresh_mailboxes).
  std::vector<Mailbox*> mailboxes_;
  // Per-frame scratch, reused so a steady-state frame allocates nothing.
  std::vector<env::EnvChangeSignal> env_signals_;
  std::vector<failstop::FailureSignal> hw_signals_;
  PhaseReport phase_done_;
  std::vector<ProcessorId> halt_boundary_hosts_;
};

}  // namespace arfs::core
