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

Processor Processor::spare() const {
  Processor spare(id_);
  if (durability_ != nullptr) {
    spare.enable_durability(
        storage::durable::make_memory_engine(durability_->options()));
  }
  return spare;
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

void Processor::restore_state(const Processor& source) {
  require((durability_ != nullptr) == (source.durability_ != nullptr),
          "processor restore must match its durability attachment");
  state_ = source.state_;
  pair_ = source.pair_;
  stable_ = source.stable_;
  volatile_ = source.volatile_;
  if (durability_ != nullptr) durability_->restore_state(*source.durability_);
  last_recovery_ = source.last_recovery_;
  lost_epochs_ = source.lost_epochs_;
  failed_at_ = source.failed_at_;
  failures_ = source.failures_;
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
