// Fail-stop processor.
//
// Enforces the two halves of the fail-stop contract (paper section 5.1):
//  * "The processor stops executing at the end of the last instruction that
//    it completed successfully." — once failed, run_action() refuses to
//    execute and staged (uncommitted) stable writes are dropped, so the
//    observable state is exactly the last frame commit.
//  * "The contents of volatile storage are lost, but the contents of stable
//    storage are preserved." — fail() erases volatile storage; committed
//    stable storage remains pollable by other processors via poll_stable().
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/failstop/self_checking_pair.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/storage/volatile_storage.hpp"

namespace arfs::failstop {

enum class ProcessorState { kRunning, kFailed };

/// Read-only view of the processor state the system digest covers: fail-
/// stop status, both stores and the durability engine, built on the stack
/// by view(). It exposes a failed processor's volatile store, which the
/// public accessors refuse to hand out. The self-checking pair's counters
/// and the last recovery report are not part of it.
struct ProcessorView {
  ProcessorState state = ProcessorState::kRunning;
  const storage::StableStorage* stable = nullptr;
  const storage::VolatileStorage* volatile_store = nullptr;
  std::uint64_t lost_epochs = 0;
  std::optional<Cycle> failed_at;
  std::uint64_t failures = 0;
  std::optional<storage::durable::EngineView> durability;
};

class Processor {
 public:
  explicit Processor(ProcessorId id) : id_(id) {}

  [[nodiscard]] ProcessorId id() const { return id_; }
  [[nodiscard]] ProcessorState state() const { return state_; }
  [[nodiscard]] bool running() const {
    return state_ == ProcessorState::kRunning;
  }

  /// Runs one action through the self-checking pair. If the comparator
  /// trips, the processor fail-stops (as if by fail()). Returns true if the
  /// action completed. Precondition: the processor is running.
  bool run_action(const Action& action, Cycle cycle);

  /// Forces a fail-stop failure at `cycle` (injected hardware fault).
  /// Idempotent on an already-failed processor.
  void fail(Cycle cycle);

  /// Restores the processor to service with empty volatile storage and its
  /// stable storage intact. Precondition: the processor is failed.
  void repair(Cycle cycle);

  /// Storage owned by this processor. Writing requires a running processor;
  /// contract enforced by the mutable accessors.
  [[nodiscard]] storage::StableStorage& stable();
  [[nodiscard]] storage::VolatileStorage& volatile_store();

  /// Read-only poll of stable storage — permitted even after failure; this
  /// is how surviving processors learn the failed processor's last state.
  [[nodiscard]] const storage::StableStorage& poll_stable() const {
    return stable_;
  }
  [[nodiscard]] const storage::VolatileStorage& peek_volatile() const {
    return volatile_;
  }

  /// Commits this processor's staged stable writes at the end of `cycle`.
  /// With durability attached, the batch is journaled (write-ahead) before
  /// the in-memory commit and snapshots are taken per the engine's policy.
  /// `force_durable_sync` marks a halt boundary (a reconfiguration directive
  /// took effect this frame): any group-commit lag is flushed so the frame
  /// is durable before the new configuration runs.
  /// A failed processor commits nothing (its pending writes were dropped).
  void commit_frame(Cycle cycle, bool force_durable_sync = false);

  /// Attaches a persistence layer behind this processor's stable storage.
  /// From here on, fail() crashes the devices (unsynced bytes are lost)
  /// and reconciles the in-memory store with what recovery reads back, so
  /// poll_stable() shows exactly the durably-preserved state. When the
  /// devices already hold state (cold restart from files), the store is
  /// recovered immediately. Precondition: no committed in-memory state
  /// that the devices don't know about.
  void enable_durability(
      std::unique_ptr<storage::durable::DurabilityEngine> engine);

  /// The attached engine, or nullptr (fault injection, stats, snapshots).
  [[nodiscard]] storage::durable::DurabilityEngine* durability() {
    return durability_.get();
  }

  /// Report of the most recent device-level recovery, if any happened.
  [[nodiscard]] const std::optional<storage::durable::RecoveryReport>&
  last_recovery() const {
    return last_recovery_;
  }

  /// Commit epochs the most recent fail()-time recovery rolled back (the
  /// group-commit lag a crash legitimately discards). Non-zero means the
  /// recovered store is *older* than the state applications last observed —
  /// a lossy recovery, even though the journal itself was intact.
  [[nodiscard]] std::uint64_t lost_epochs() const { return lost_epochs_; }

  [[nodiscard]] std::optional<Cycle> failed_at() const { return failed_at_; }
  [[nodiscard]] std::uint64_t failure_count() const { return failures_; }
  [[nodiscard]] SelfCheckingPair& pair() { return pair_; }

  /// A processor to copy this one into with restore_state: the same id,
  /// empty stores and, when this one is durable, an empty memory engine with
  /// this engine's options. A checkpoint of a processor is such a spare,
  /// refreshed by spare.restore_state(live) and restored by
  /// live.restore_state(spare).
  [[nodiscard]] Processor spare() const;
  /// The digested state, read in place (see ProcessorView).
  [[nodiscard]] ProcessorView view() const;
  /// Makes this processor a copy of `source`, keeping its own id, engine
  /// object and buffers: fail-stop state, the pair, both stores, the
  /// engine's state (DurabilityEngine::restore_state), the last recovery
  /// report, lost epochs and the failure record. Only reads `source`.
  /// Precondition: both processors match in durability attachment.
  void restore_state(const Processor& source);

 private:
  ProcessorId id_;
  ProcessorState state_ = ProcessorState::kRunning;
  SelfCheckingPair pair_;
  storage::StableStorage stable_;
  storage::VolatileStorage volatile_;
  std::unique_ptr<storage::durable::DurabilityEngine> durability_;
  std::optional<storage::durable::RecoveryReport> last_recovery_;
  std::uint64_t lost_epochs_ = 0;
  std::optional<Cycle> failed_at_;
  std::uint64_t failures_ = 0;
};

}  // namespace arfs::failstop
