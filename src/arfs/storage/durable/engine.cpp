#include "arfs/storage/durable/engine.hpp"

#include <algorithm>
#include <utility>

#include "arfs/common/check.hpp"

namespace arfs::storage::durable {

namespace {

/// GC keeps this many newest images: the current one, plus its predecessor
/// so recovery can fall back when the current image's sync failed and a
/// crash tore it (the journal is uncompacted in exactly that case).
constexpr std::size_t kGcKeepImages = 2;

/// An engine device restore_state copies from or into. Only a memory
/// device can be copied, so a file-backed engine cannot be checkpointed.
MemoryBackend& memory_device(JournalBackend& device) {
  auto* memory = dynamic_cast<MemoryBackend*>(&device);
  require(memory != nullptr, "checkpoints need memory journal devices");
  return *memory;
}

}  // namespace

std::string to_string(SyncMode mode) {
  switch (mode) {
    case SyncMode::kEveryCommit:     return "every-commit";
    case SyncMode::kBytesWatermark:  return "bytes-watermark";
    case SyncMode::kFramesWatermark: return "frames-watermark";
    case SyncMode::kHybrid:          return "hybrid";
    case SyncMode::kAdaptive:        return "adaptive";
  }
  return "unknown";
}

DurabilityEngine::DurabilityEngine(std::unique_ptr<JournalBackend> journal,
                                   std::unique_ptr<JournalBackend> snapshots,
                                   DurableOptions options)
    : journal_(std::move(journal)), snapshots_(std::move(snapshots)),
      options_(options) {
  require(journal_ != nullptr && snapshots_ != nullptr,
          "durability engine needs both devices");
  const SyncPolicy& p = options_.sync;
  adaptive_watermark_fp_ =
      std::clamp(p.bytes_watermark, p.adaptive_min_bytes,
                 p.adaptive_max_bytes)
      << kAdaptiveFracBits;
}

void DurabilityEngine::note_ship(std::uint64_t bytes, std::uint64_t lag,
                                 std::uint64_t horizon) {
  if (bytes > 0) {
    ++stats_.ship_batches;
    stats_.shipped_bytes += bytes;
  }
  stats_.ship_lag_bytes = lag;
  stats_.max_ship_lag_bytes = std::max(stats_.max_ship_lag_bytes, lag);
  ship_horizon_ = std::max(ship_horizon_, horizon);
}

void DurabilityEngine::set_reconfig_pressure(bool on) {
  if (on && !reconfig_pressure_) ++stats_.pressure_engagements;
  reconfig_pressure_ = on;
}

std::uint64_t DurabilityEngine::adaptive_effective_bytes() const {
  return reconfig_pressure_ ? options_.sync.adaptive_min_bytes
                            : (adaptive_watermark_fp_ >> kAdaptiveFracBits);
}

bool DurabilityEngine::watermark_reached() const {
  const SyncPolicy& policy = options_.sync;
  switch (policy.mode) {
    case SyncMode::kEveryCommit:
      return true;
    case SyncMode::kBytesWatermark:
      return stats_.lag_bytes >= policy.bytes_watermark;
    case SyncMode::kFramesWatermark:
      return stats_.lag_frames >= policy.frames_watermark;
    case SyncMode::kHybrid:
      return stats_.lag_bytes >= policy.bytes_watermark ||
             stats_.lag_frames >= policy.frames_watermark;
    case SyncMode::kAdaptive:
      return stats_.lag_bytes >= adaptive_effective_bytes() ||
             (policy.frames_watermark > 0 &&
              stats_.lag_frames >= policy.frames_watermark);
  }
  return true;
}

void DurabilityEngine::tune_adaptive(std::uint64_t flushed_bytes) {
  // Pure fixed-point arithmetic over engine-local state: same commit
  // history in, same watermark trajectory out, on any thread/shard count.
  const SyncPolicy& p = options_.sync;
  const std::uint64_t lo = p.adaptive_min_bytes << kAdaptiveFracBits;
  const std::uint64_t hi = p.adaptive_max_bytes << kAdaptiveFracBits;
  const std::uint64_t target = kAdaptiveSyncCostBytes * kAdaptiveGain;
  std::uint64_t fp = std::clamp(adaptive_watermark_fp_, lo, hi);
  if (flushed_bytes < target) {
    // The sync amortized too few bytes: its fixed cost dominates. Raise the
    // watermark 25% (plus one byte so a zero floor still moves) — the climb
    // out of a cold start has to outpace the workload, so raising is
    // deliberately steeper than the 12.5% back-off below.
    ++stats_.adaptive_raises;
    fp = std::min(hi, fp + fp / 4 + (std::uint64_t{1} << kAdaptiveFracBits));
  } else if (flushed_bytes > 4 * target) {
    // Overshoot: the lag a crash could lose grew past the band. Back off.
    ++stats_.adaptive_drops;
    fp = std::max(lo, fp - fp / 8);
  }
  adaptive_watermark_fp_ = fp;
  stats_.adaptive_watermark_bytes = fp >> kAdaptiveFracBits;
}

bool DurabilityEngine::do_sync() {
  const std::uint64_t flushed = stats_.lag_bytes;
  ++stats_.syncs;
  if (!journal_->sync()) {
    // The tail stays buffered, so the lag persists; a later sync (or the
    // next watermark) retries it.
    ++stats_.sync_failures;
    return false;
  }
  stats_.lag_frames = 0;
  stats_.lag_bytes = 0;
  stats_.last_durable_epoch =
      std::max(stats_.last_durable_epoch, appended_epoch_);
  if (options_.sync.mode == SyncMode::kAdaptive) tune_adaptive(flushed);
  return true;
}

bool DurabilityEngine::sync_now() {
  if (stats_.lag_frames == 0 && stats_.lag_bytes == 0) return true;
  ++stats_.forced_syncs;
  return do_sync();
}

void DurabilityEngine::record_commit(const StableStorage& store, Cycle cycle) {
  if (!ensure_header(*journal_)) {
    // A media fault (or foreign content) destroyed the device header. The
    // scanner trusts nothing after a bad magic, so appending here could
    // never make this commit durable — count the fault and suspend
    // journaling. recover_into() truncates the device, after which the
    // header is rewritten and journaling resumes.
    ++stats_.header_faults;
    return;
  }
  scratch_.clear();
  encode_commit(scratch_, interner_, store.commit_epochs() + 1, cycle, store);
  journal_->append(scratch_.data(), scratch_.size());
  stats_.bytes_appended += scratch_.size();
  ++stats_.commits_journaled;
  appended_epoch_ = store.commit_epochs() + 1;
  ++stats_.lag_frames;
  stats_.lag_bytes += scratch_.size();
  stats_.max_lag_frames = std::max(stats_.max_lag_frames, stats_.lag_frames);
  stats_.max_lag_bytes = std::max(stats_.max_lag_bytes, stats_.lag_bytes);
  if (watermark_reached()) {
    if (options_.sync.mode == SyncMode::kAdaptive && reconfig_pressure_ &&
        stats_.lag_bytes < (adaptive_watermark_fp_ >> kAdaptiveFracBits)) {
      // Only the lowered bar made this sync fire.
      ++stats_.pressure_syncs;
    }
    (void)do_sync();
  }
}

void DurabilityEngine::after_commit(const StableStorage& store) {
  if (options_.snapshot_every_epochs == 0) return;
  if (store.commit_epochs() == 0 ||
      store.commit_epochs() % options_.snapshot_every_epochs != 0) {
    return;
  }
  take_snapshot(store);
}

bool DurabilityEngine::take_snapshot(const StableStorage& store) {
  // Snapshot boundary: flush the journal lag first, so durability at the
  // boundary never depends on whether the image itself succeeds.
  (void)sync_now();
  if (!append_snapshot(*snapshots_, store, scratch_) || !snapshots_->sync()) {
    ++stats_.snapshot_failures;
    return false;
  }
  ++stats_.snapshots_taken;
  stats_.last_durable_epoch =
      std::max(stats_.last_durable_epoch, store.commit_epochs());
  // Reclaim superseded images while the journal still covers everything
  // since the previous image — a failed rewrite then loses nothing.
  gc_snapshots();
  // Compaction starts a new journal generation for shippers. Retain the
  // outgoing generation's synced bytes so replicas that lag this compaction
  // can finish it and rebase; if the boundary sync above failed, un-shipped
  // records went into the image without ever becoming shippable, so a
  // rebase would silently lose them — disable it and force a full copy.
  rebase_ok_ = stats_.lag_bytes == 0;
  retained_tail_.clear();
  if (rebase_ok_) {
    const std::uint64_t synced = journal_->synced_size();
    if (synced > kHeaderSize) {
      retained_tail_.resize(static_cast<std::size_t>(synced - kHeaderSize));
      const std::size_t got = journal_->read(kHeaderSize,
                                             retained_tail_.data(),
                                             retained_tail_.size());
      if (got != retained_tail_.size()) {
        retained_tail_.clear();
        rebase_ok_ = false;
      }
    }
  }
  rebase_epoch_ = store.commit_epochs();
  ++journal_generation_;
  ship_horizon_ = kHeaderSize;
  // The image covers every epoch the journal holds; compact it. Torn-tail
  // safety is preserved because the image is already durably synced. The
  // buffered tail (if a pre-image sync failed) is covered by the image too,
  // so the lag is settled along with the key dictionary, which restarts
  // empty in the fresh journal generation.
  journal_->truncate(kHeaderSize);
  interner_.reset();
  stats_.lag_frames = 0;
  stats_.lag_bytes = 0;
  appended_epoch_ = store.commit_epochs();
  return true;
}

void DurabilityEngine::crash() {
  journal_->crash();
  snapshots_->crash();
  ++stats_.crashes;
}

void DurabilityEngine::gc_snapshots() {
  const SnapshotWalk walk = walk_snapshots(*snapshots_, decode_scratch_);
  if (walk.truncated || walk.images <= kGcKeepImages) return;
  static_assert(kGcKeepImages == 2,
                "the walk remembers the offsets of the newest two images");
  const std::uint64_t keep_from = walk.previous_offset;
  // Copy the whole image tail out so a failed rewrite can be rolled back.
  // The image is already on the device, so its encode buffer holds it.
  std::vector<std::uint8_t>& tail = scratch_;
  tail.resize(static_cast<std::size_t>(walk.valid_bytes - kHeaderSize));
  if (snapshots_->read(kHeaderSize, tail.data(), tail.size()) != tail.size()) {
    return;  // device refused the read; leave it alone
  }
  const auto keep_offset = static_cast<std::size_t>(keep_from - kHeaderSize);
  snapshots_->truncate(kHeaderSize);
  snapshots_->append(tail.data() + keep_offset, tail.size() - keep_offset);
  if (snapshots_->sync()) {
    ++stats_.snapshot_gc_runs;
    stats_.snapshot_bytes_reclaimed += keep_offset;
    return;
  }
  // Rewrite could not be made durable: restore the original device content
  // so the durable image set is no worse than before the GC attempt.
  ++stats_.snapshot_failures;
  snapshots_->truncate(kHeaderSize);
  snapshots_->append(tail.data(), tail.size());
  (void)snapshots_->sync();
}

RecoveryReport DurabilityEngine::recover_into(StableStorage& out) {
  // The last valid image first, then the journal's commits after it, both
  // straight into `out`; the replay also rebuilds the key dictionary.
  out.reset_committed();
  RecoveryReport report;
  const SnapshotWalk snap =
      restore_last_snapshot(*snapshots_, out, decode_scratch_);
  if (snap.images > 0) {
    report.used_snapshot = true;
    report.snapshot_epoch = snap.last_epoch;
  }
  ScanStats ss;
  const JournalReplay replay =
      replay_journal(*journal_, report.snapshot_epoch, out, interner_,
                     decode_scratch_, replay_keys_, &ss);
  stats_.decode_buffer_reuses += ss.payload_reuses;
  report.records_applied = replay.records_applied;
  report.records_skipped = replay.records_skipped;
  report.last_epoch = replay.last_epoch;
  out.set_commit_epochs(report.last_epoch);
  report.journal_truncated = replay.truncated;
  report.valid_bytes = replay.valid_bytes;
  if (replay.truncated) report.note = replay.reason;
  if (snap.truncated) {
    report.note += report.note.empty() ? "" : "; ";
    report.note += "snapshot device: ";
    report.note += snap.reason;
  }
  // Discard the untrusted tails so appends resume after the last good
  // record — the journal analogue of halting at the last completed
  // instruction. The journal then ends exactly where the replay stopped
  // trusting it, so the dictionary the replay rebuilt is the writer's.
  journal_->truncate(report.valid_bytes);
  if (report.valid_bytes < ship_horizon_) {
    // The truncation destroyed bytes a shipper may already have served
    // (bit flip or torn salvage inside the shipped range): replica cursors
    // into this generation no longer describe the journal. Start a new
    // generation with no retained window — stale cursors must full-copy.
    ++journal_generation_;
    rebase_ok_ = false;
    retained_tail_.clear();
    ship_horizon_ = kHeaderSize;
  } else {
    ship_horizon_ = std::max<std::uint64_t>(
        kHeaderSize, std::min(ship_horizon_, report.valid_bytes));
  }
  if (snap.truncated) snapshots_->truncate(snap.valid_bytes);
  stats_.lag_frames = 0;
  stats_.lag_bytes = 0;
  stats_.last_durable_epoch = report.last_epoch;
  appended_epoch_ = report.last_epoch;
  ++stats_.recoveries;
  return report;
}

bool DurabilityEngine::has_state() const {
  return journal_->size() > kHeaderSize || snapshots_->size() > kHeaderSize;
}

EngineView DurabilityEngine::view() const {
  return {.journal = journal_.get(),
          .snapshots = snapshots_.get(),
          .appended_epoch = appended_epoch_,
          .journal_generation = journal_generation_,
          .retained_tail = retained_tail_,
          .rebase_ok = rebase_ok_,
          .rebase_epoch = rebase_epoch_,
          .ship_horizon = ship_horizon_,
          .adaptive_watermark_fp = adaptive_watermark_fp_,
          .reconfig_pressure = reconfig_pressure_};
}

void DurabilityEngine::restore_state(const DurabilityEngine& source) {
  // Every device is checked before anything is written, so a file device
  // on either side leaves this engine unchanged.
  const MemoryBackend& journal = memory_device(*source.journal_);
  const MemoryBackend& snapshots = memory_device(*source.snapshots_);
  MemoryBackend& own_journal = memory_device(*journal_);
  MemoryBackend& own_snapshots = memory_device(*snapshots_);
  // Copy-assignment keeps each device's buffers, so a warm copy allocates
  // nothing.
  own_journal = journal;
  own_snapshots = snapshots;
  stats_ = source.stats_;
  interner_ = source.interner_;
  appended_epoch_ = source.appended_epoch_;
  journal_generation_ = source.journal_generation_;
  retained_tail_ = source.retained_tail_;
  rebase_ok_ = source.rebase_ok_;
  rebase_epoch_ = source.rebase_epoch_;
  ship_horizon_ = source.ship_horizon_;
  adaptive_watermark_fp_ = source.adaptive_watermark_fp_;
  reconfig_pressure_ = source.reconfig_pressure_;
  scratch_.clear();
  decode_scratch_.clear();
}

std::unique_ptr<DurabilityEngine> make_memory_engine(DurableOptions options) {
  return std::make_unique<DurabilityEngine>(std::make_unique<MemoryBackend>(),
                                            std::make_unique<MemoryBackend>(),
                                            options);
}

}  // namespace arfs::storage::durable
