#include "arfs/failstop/processor.hpp"

#include "arfs/common/check.hpp"
#include "arfs/common/log.hpp"

namespace arfs::failstop {

bool Processor::run_action(const Action& action, Cycle cycle) {
  require(running(), "run_action on failed processor");
  if (pair_.run(action)) return true;
  // Comparator divergence: the self-checking pair converted a computational
  // fault into a halt; apply fail-stop semantics.
  log_warn("failstop", "processor ", id_.value(),
           " comparator divergence at cycle ", cycle);
  fail(cycle);
  return false;
}

void Processor::fail(Cycle cycle) {
  if (state_ == ProcessorState::kFailed) return;
  state_ = ProcessorState::kFailed;
  failed_at_ = cycle;
  ++failures_;
  // The fail-stop contract: uncommitted work vanishes, volatile is erased,
  // committed stable storage is preserved.
  stable_.drop_pending();
  volatile_.erase_all();
  if (durability_) {
    // The halt reaches the devices too: unsynced journal bytes are lost
    // (possibly tearing the final record), and the in-memory store is
    // reconciled with what the devices actually preserved — so peers
    // polling this processor see the recovered state, not a convenient
    // in-memory copy the disk never had.
    const std::uint64_t pre_crash_epochs = stable_.commit_epochs();
    durability_->crash();
    last_recovery_ = durability_->recover_into(stable_);
    lost_epochs_ = pre_crash_epochs > stable_.commit_epochs()
                       ? pre_crash_epochs - stable_.commit_epochs()
                       : 0;
    if (last_recovery_->journal_truncated) {
      log_warn("failstop", "processor ", id_.value(),
               " journal truncated on recovery: ", last_recovery_->note);
    }
  }
  log_info("failstop", "processor ", id_.value(), " fail-stopped at cycle ",
           cycle);
}

void Processor::repair(Cycle cycle) {
  require(state_ == ProcessorState::kFailed, "repair on running processor");
  state_ = ProcessorState::kRunning;
  pair_.reset();
  failed_at_.reset();
  log_info("failstop", "processor ", id_.value(), " repaired at cycle ",
           cycle);
}

storage::StableStorage& Processor::stable() {
  require(running(), "stable-storage write access on failed processor");
  return stable_;
}

storage::VolatileStorage& Processor::volatile_store() {
  require(running(), "volatile-storage access on failed processor");
  return volatile_;
}

void Processor::commit_frame(Cycle cycle, bool force_durable_sync) {
  if (!running()) return;
  if (durability_) {
    if (!stable_.pending().empty()) {
      durability_->record_commit(stable_, cycle);  // write-ahead
      stable_.commit(cycle);
    } else {
      stable_.commit(cycle);  // empty commit: nothing worth journaling
    }
    durability_->after_commit(stable_);
    if (force_durable_sync) (void)durability_->sync_now();
    return;
  }
  stable_.commit(cycle);
}

void Processor::checkpoint_into(Checkpoint& cp) const {
  cp.state = state_;
  cp.pair = pair_;
  cp.stable = stable_;
  cp.volatile_store = volatile_;
  if (durability_ != nullptr) {
    if (!cp.durability.has_value()) cp.durability.emplace();
    durability_->checkpoint_into(*cp.durability);
  } else {
    cp.durability.reset();
  }
  cp.last_recovery = last_recovery_;
  cp.lost_epochs = lost_epochs_;
  cp.failed_at = failed_at_;
  cp.failures = failures_;
}

ProcessorView Processor::view() const {
  return {.state = state_,
          .stable = &stable_,
          .volatile_store = &volatile_,
          .lost_epochs = lost_epochs_,
          .failed_at = failed_at_,
          .failures = failures_,
          .durability = durability_ != nullptr
                            ? std::optional(durability_->view())
                            : std::nullopt};
}

ProcessorView Processor::Checkpoint::view() const {
  return {.state = state,
          .stable = &stable,
          .volatile_store = &volatile_store,
          .lost_epochs = lost_epochs,
          .failed_at = failed_at,
          .failures = failures,
          .durability = durability.has_value()
                            ? std::optional(durability->view())
                            : std::nullopt};
}

struct Processor::LiveState {
  ProcessorState state;
  const SelfCheckingPair& pair;
  const storage::StableStorage& stable;
  const storage::VolatileStorage& volatile_store;
  const storage::durable::DurabilityEngine* durability;
  const std::optional<storage::durable::RecoveryReport>& last_recovery;
  std::uint64_t lost_epochs;
  std::optional<Cycle> failed_at;
  std::uint64_t failures;
};

template <class Image>
void Processor::restore_from(const Image& cp) {
  require((durability_ != nullptr) == static_cast<bool>(cp.durability),
          "processor restore must match its durability attachment");
  state_ = cp.state;
  pair_ = cp.pair;
  stable_ = cp.stable;
  volatile_ = cp.volatile_store;
  if (durability_ != nullptr) durability_->restore_state(*cp.durability);
  last_recovery_ = cp.last_recovery;
  lost_epochs_ = cp.lost_epochs;
  failed_at_ = cp.failed_at;
  failures_ = cp.failures;
}

void Processor::restore_state(const Checkpoint& cp) { restore_from(cp); }

void Processor::restore_state(const Processor& live) {
  restore_from(LiveState{.state = live.state_,
                         .pair = live.pair_,
                         .stable = live.stable_,
                         .volatile_store = live.volatile_,
                         .durability = live.durability_.get(),
                         .last_recovery = live.last_recovery_,
                         .lost_epochs = live.lost_epochs_,
                         .failed_at = live.failed_at_,
                         .failures = live.failures_});
}

void Processor::enable_durability(
    std::unique_ptr<storage::durable::DurabilityEngine> engine) {
  require(engine != nullptr, "null durability engine");
  require(durability_ == nullptr, "durability already enabled");
  durability_ = std::move(engine);
  if (durability_->has_state()) {
    // Cold restart: the devices outlived the process; rebuild from them.
    last_recovery_ = durability_->recover_into(stable_);
  } else {
    require(stable_.committed_count() == 0,
            "cannot attach empty devices to a store with committed state");
  }
}

}  // namespace arfs::failstop
