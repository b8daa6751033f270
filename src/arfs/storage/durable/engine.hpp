// DurabilityEngine: the persistence layer behind a StableStorage.
//
// One engine owns two devices: the write-ahead *journal* (magic "ARFSWAL2";
// journal.hpp) and the *snapshot device*, an append-only log of full
// committed-store images (magic "ARFSSNP1"; snapshot.hpp). Recovery from
// the same commit history always yields the same store at the same epoch,
// which is the invariant the crash-point sweep's report digests lean on.
//
// Protocol per frame (write-ahead rule):
//
//   1. record_commit() encodes the staged batch as one journal record and,
//      under the sync policy, decides whether to sync now — under the
//      default every-commit policy the commit exists on the device before it
//      exists in memory;
//   2. the caller applies StableStorage::commit();
//   3. after_commit() appends a snapshot image every
//      `snapshot_every_epochs` commits, and compacts the journal once the
//      image is durably synced.
//
// Group commit: the watermark policies let journal records accumulate in
// the device's buffered tail and sync only when the accumulated lag crosses
// a bytes or frames watermark, trading a bounded durability lag for append
// throughput (one fsync amortized over many commits). The lag is tracked in
// DurabilityStats and is forced to zero at every snapshot and halt boundary
// (sync_now()), so fail-stop semantics are unchanged: what a crash can lose
// is only the un-synced suffix of whole frame commits, never a torn record,
// and never anything past a boundary the protocol declared durable.
//
// Adaptive watermarks (SyncMode::kAdaptive): instead of a hand-tuned static
// watermark, a deterministic fixed-point controller retunes the bytes
// watermark after every sync from the observed bytes-per-sync amortization
// (the commit-size / sync-cost ratio, with the per-sync cost modeled as a
// fixed byte-equivalent). The controller is pure integer arithmetic over
// engine-local state — seeded by the policy, replayed identically on any
// thread or shard count — so checkpoints, restores, and sweep digests stay
// bit-exact. During a reconfiguration the SCRAM applies *pressure*
// (set_reconfig_pressure), which drops the effective watermark to the
// policy's floor so directives reach stable storage with minimal lag;
// pressure affects only kAdaptive, never the static policies.
//
// On a fail-stop halt the owner calls crash() (the device loses its
// unsynced tail, exactly like the processor loses volatile storage) and
// then recover_into(): scan the snapshot device for the last valid image,
// replay journal records with later epochs, truncate at the first torn or
// corrupt record, and physically discard the untrusted tail so journaling
// can resume. The recovered store is the disk-level
// "last successfully completed instruction" state of paper §5.1 — what
// peers polling the failed processor are entitled to see.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "arfs/common/types.hpp"
#include "arfs/storage/durable/backend.hpp"
#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/durable/snapshot.hpp"
#include "arfs/storage/stable_storage.hpp"

namespace arfs::storage::durable {

/// When record_commit() syncs the journal.
enum class SyncMode : std::uint8_t {
  kEveryCommit,      ///< Sync inside every record_commit (write-ahead).
  kBytesWatermark,   ///< Sync when un-synced bytes reach the watermark.
  kFramesWatermark,  ///< Sync when un-synced frames reach the watermark.
  kHybrid,           ///< Sync when either watermark is reached.
  kAdaptive,         ///< Bytes watermark retuned online (see file comment).
};

struct SyncPolicy {
  SyncMode mode = SyncMode::kEveryCommit;
  /// Static bytes watermark; under kAdaptive, the controller's *initial*
  /// watermark (clamped into [adaptive_min_bytes, adaptive_max_bytes]).
  std::uint64_t bytes_watermark = 64 * 1024;
  /// Static frames watermark; under kAdaptive, a hard lag-frames ceiling
  /// (0 disables it) bounding how many whole commits a crash can lose no
  /// matter how high the byte watermark tunes.
  std::uint64_t frames_watermark = 32;
  /// kAdaptive clamp bounds. The floor doubles as the *pressured* watermark
  /// applied while the SCRAM reconfigures.
  std::uint64_t adaptive_min_bytes = 512;
  std::uint64_t adaptive_max_bytes = 256 * 1024;

  static SyncPolicy every_commit() { return {}; }
  static SyncPolicy bytes(std::uint64_t watermark) {
    return {SyncMode::kBytesWatermark, watermark, 0};
  }
  static SyncPolicy frames(std::uint64_t watermark) {
    return {SyncMode::kFramesWatermark, 0, watermark};
  }
  static SyncPolicy hybrid(std::uint64_t bytes_watermark,
                           std::uint64_t frames_watermark) {
    return {SyncMode::kHybrid, bytes_watermark, frames_watermark};
  }
  static SyncPolicy adaptive(std::uint64_t initial_bytes = 8 * 1024,
                             std::uint64_t min_bytes = 512,
                             std::uint64_t max_bytes = 256 * 1024,
                             std::uint64_t frames_ceiling = 64) {
    return {SyncMode::kAdaptive, initial_bytes, frames_ceiling, min_bytes,
            max_bytes};
  }
};

[[nodiscard]] std::string to_string(SyncMode mode);

struct DurableOptions {
  /// Take a full snapshot image every N commit epochs; 0 disables the
  /// cadence (recovery then replays the whole journal).
  std::uint64_t snapshot_every_epochs = 0;
  /// Group-commit sync policy. The default syncs every commit.
  SyncPolicy sync;
};

struct DurabilityStats {
  std::uint64_t commits_journaled = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t syncs = 0;
  std::uint64_t sync_failures = 0;
  std::uint64_t snapshots_taken = 0;
  std::uint64_t snapshot_failures = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  /// Commits not journaled because the device header was found destroyed
  /// (journaling suspends until recovery re-initializes the device).
  std::uint64_t header_faults = 0;

  // --- group-commit durability lag ---
  /// Journaled commits / bytes sitting in the buffered tail, not yet synced
  /// (what a crash right now would lose). Reset by every successful sync.
  std::uint64_t lag_frames = 0;
  std::uint64_t lag_bytes = 0;
  /// High-water marks of the above, over the engine's lifetime.
  std::uint64_t max_lag_frames = 0;
  std::uint64_t max_lag_bytes = 0;
  /// Boundary syncs requested via sync_now() that found lag to flush
  /// (snapshot boundaries and halt directives).
  std::uint64_t forced_syncs = 0;
  /// Highest commit epoch known durable (synced journal record or state
  /// image). A crash recovers exactly this epoch's state.
  std::uint64_t last_durable_epoch = 0;

  // --- snapshot GC ---
  std::uint64_t snapshot_gc_runs = 0;
  std::uint64_t snapshot_bytes_reclaimed = 0;

  // --- recovery decode path ---
  /// Journal-replay payload decodes served from the hoisted scratch buffer
  /// without a fresh allocation (the recovery mirror of the encode-path
  /// scratch reuse).
  std::uint64_t decode_buffer_reuses = 0;

  // --- adaptive sync controller (SyncMode::kAdaptive) ---
  std::uint64_t adaptive_raises = 0;  ///< Watermark-raise steps taken.
  std::uint64_t adaptive_drops = 0;   ///< Watermark-drop steps taken.
  /// The controller's current effective bytes watermark (unpressured).
  std::uint64_t adaptive_watermark_bytes = 0;
  /// SCRAM pressure transitions from off to on.
  std::uint64_t pressure_engagements = 0;
  /// Watermark syncs triggered only because pressure lowered the bar.
  std::uint64_t pressure_syncs = 0;

  // --- journal shipping (JournalShipper over this engine) ---
  std::uint64_t ship_batches = 0;
  std::uint64_t shipped_bytes = 0;
  /// Synced journal bytes a shipped replica has not yet received, as of the
  /// last batch produced (the warm-start catch-up debt), and its high-water
  /// mark.
  std::uint64_t ship_lag_bytes = 0;
  std::uint64_t max_ship_lag_bytes = 0;
  /// Replica cursors invalidated (lagged past the retained generation, or
  /// a lossy recovery destroyed shipped bytes): each costs a full copy.
  std::uint64_t ship_fallbacks = 0;
  /// Replicas rebased across a compaction without a full copy.
  std::uint64_t ship_rebases = 0;
};

/// What recovery found and did.
struct RecoveryReport {
  bool used_snapshot = false;
  std::uint64_t snapshot_epoch = 0;
  std::uint64_t records_applied = 0;   ///< Journal records replayed.
  std::uint64_t records_skipped = 0;   ///< Already covered by the snapshot.
  std::uint64_t last_epoch = 0;        ///< Epoch of the recovered store.
  bool journal_truncated = false;      ///< A torn/corrupt tail was found.
  std::uint64_t valid_bytes = 0;       ///< Journal prefix that was trusted.
  std::string note;                    ///< Scanner's reason, when truncated.
};

/// Read-only view of the engine state the system digest covers: both
/// devices, the shipping words and the adaptive controller, built on the
/// stack by view(). DurabilityStats and the key interner are not part of
/// it.
struct EngineView {
  const JournalBackend* journal = nullptr;
  const JournalBackend* snapshots = nullptr;
  std::uint64_t appended_epoch = 0;
  std::uint64_t journal_generation = 0;
  std::span<const std::uint8_t> retained_tail;
  bool rebase_ok = true;
  std::uint64_t rebase_epoch = 0;
  std::uint64_t ship_horizon = 0;
  std::uint64_t adaptive_watermark_fp = 0;
  bool reconfig_pressure = false;
};

/// The durable store of one processor: the journal device, the snapshot
/// device, and all journaling, sync-policy, and shipping bookkeeping.
class DurabilityEngine {
 public:
  DurabilityEngine(std::unique_ptr<JournalBackend> journal,
                   std::unique_ptr<JournalBackend> snapshots,
                   DurableOptions options = {});

  DurabilityEngine(const DurabilityEngine&) = delete;
  DurabilityEngine& operator=(const DurabilityEngine&) = delete;

  /// Journals the staged batch `store` is about to commit at `cycle`, and
  /// syncs if the policy's watermark is reached.
  /// Call immediately before store.commit(cycle).
  void record_commit(const StableStorage& store, Cycle cycle);

  /// Snapshot cadence hook; call right after store.commit().
  void after_commit(const StableStorage& store);

  /// Boundary sync: flushes any un-synced journal tail now. Used at halt
  /// boundaries (a reconfiguration directive is about to take effect) so
  /// group commit never weakens the fail-stop contract. No-op when the lag
  /// is already zero. Returns false on a device sync failure (the lag then
  /// persists and the next sync retries).
  bool sync_now();

  /// Forces a snapshot image now and compacts the journal behind it.
  /// Returns false when the image could not be made durable (sync
  /// failure) — the journal is then left uncompacted.
  bool take_snapshot(const StableStorage& store);

  /// Device side of a fail-stop halt: unsynced bytes are lost.
  void crash();

  /// Rebuilds `out` from the snapshot device + journal replay, then truncates
  /// any untrusted journal tail so appends can resume after the last good
  /// record. `out` is cleared of committed state first; its pending buffer
  /// and history configuration are left alone.
  RecoveryReport recover_into(StableStorage& out);

  /// True when the devices hold any durable state worth recovering.
  [[nodiscard]] bool has_state() const;

  /// The digested state, read in place (see EngineView).
  [[nodiscard]] EngineView view() const;
  /// Makes this engine a copy of `source` in place: both devices' images
  /// (durable image, buffered tail and armed fault hooks included), the
  /// stats, the key dictionary, the shipping words and the adaptive
  /// controller; the encode and decode buffers are cleared. The engine
  /// object's identity is kept deliberately (shippers and units hold
  /// references to it), and so is each device's: the source's image is
  /// copy-assigned into it, keeping its buffers, so a warm copy allocates
  /// nothing. The options are this engine's own. A checkpoint of an engine
  /// is a spare engine refreshed this way. Only reads `source`.
  /// Precondition: all four devices are MemoryBackends (a FileBackend
  /// cannot be copied); otherwise this throws and leaves this engine
  /// unchanged.
  void restore_state(const DurabilityEngine& source);

  /// SCRAM reconfiguration pressure: while on, a kAdaptive policy's
  /// effective watermark drops to its floor so directives become durable
  /// with minimal lag. Static policies are unaffected — their lag contract
  /// is already settled by the halt-boundary sync_now(). Deterministic:
  /// the System asserts pressure from the reconfiguration plan, never from
  /// wall-clock state.
  void set_reconfig_pressure(bool on);
  [[nodiscard]] bool reconfig_pressure() const { return reconfig_pressure_; }
  /// The adaptive controller's fixed-point watermark (8 fractional bits);
  /// checkpointed and digested so replays stay bit-exact.
  [[nodiscard]] std::uint64_t adaptive_watermark_fp() const {
    return adaptive_watermark_fp_;
  }

  [[nodiscard]] const DurabilityStats& stats() const { return stats_; }
  [[nodiscard]] const DurableOptions& options() const { return options_; }
  [[nodiscard]] JournalBackend& journal() { return *journal_; }
  [[nodiscard]] JournalBackend& snapshots() { return *snapshots_; }

  // --- journal-shipping support ---

  /// Monotone generation counter of the journal's byte space. Bumped when
  /// compaction discards the journal (take_snapshot) and when a lossy
  /// recovery truncates bytes a shipper may already have served — a ship
  /// cursor is only meaningful within one generation.
  [[nodiscard]] std::uint64_t journal_generation() const {
    return journal_generation_;
  }
  /// Synced bytes of the previous generation, retained at compaction so
  /// replicas that lag one compaction can still catch up instead of
  /// falling back to a full copy.
  [[nodiscard]] const std::vector<std::uint8_t>& retained_tail() const {
    return retained_tail_;
  }
  /// True when a replica that consumed the whole previous generation may
  /// rebase onto the current one (the retained bytes cover everything the
  /// compacting snapshot image covered; false when the pre-image sync
  /// failed and un-shipped records went straight into the image).
  [[nodiscard]] bool rebase_ok() const { return rebase_ok_; }
  /// Epoch a rebasing replica adopts: the compacting image's epoch.
  [[nodiscard]] std::uint64_t rebase_epoch() const { return rebase_epoch_; }
  /// The journal's current key dictionary — part of the state a full-copy
  /// reseed transfers (later records reference ids announced before it).
  [[nodiscard]] std::span<const std::string> dictionary() const {
    return interner_.names();
  }

  /// Shipping accounting, called by JournalShipper per batch: bytes put on
  /// the wire, synced bytes still owed, and (for current-generation
  /// batches; 0 otherwise) the end offset shipped up to — the horizon a
  /// lossy recovery checks cursors against.
  void note_ship(std::uint64_t bytes, std::uint64_t lag,
                 std::uint64_t horizon);
  void note_ship_fallback() { ++stats_.ship_fallbacks; }
  void note_ship_rebase() { ++stats_.ship_rebases; }

 private:
  /// Keeps the newest two snapshot images (the current one plus its
  /// predecessor as the torn-image fallback) and reclaims the rest. Runs
  /// after a successful image, before journal compaction, so a failed
  /// rewrite never orphans journal state.
  void gc_snapshots();
  [[nodiscard]] bool watermark_reached() const;
  /// The kAdaptive effective bytes watermark right now (pressure applied).
  [[nodiscard]] std::uint64_t adaptive_effective_bytes() const;
  /// Retunes the fixed-point watermark from the bytes this sync flushed.
  void tune_adaptive(std::uint64_t flushed_bytes);
  /// Syncs the journal and settles the lag counters. Shared by the policy
  /// path, sync_now(), and the snapshot boundary.
  bool do_sync();

  std::unique_ptr<JournalBackend> journal_;
  std::unique_ptr<JournalBackend> snapshots_;
  DurableOptions options_;
  DurabilityStats stats_;
  /// Reused encode buffer: commit records, snapshot images, and the GC's
  /// rollback copy of the image tail.
  std::vector<std::uint8_t> scratch_;
  /// Reused payload buffer of recovery and the GC walk (the decode mirror
  /// of scratch_); journal-replay reuse is counted in
  /// DurabilityStats::decode_buffer_reuses.
  std::vector<std::uint8_t> decode_scratch_;
  /// Recovery's map from journal dictionary ids to the store's KeyIds.
  DictKeyMap replay_keys_;
  KeyInterner interner_;               ///< Journal key dictionary (writer).
  /// Epoch of the newest record appended to the journal; becomes
  /// last_durable_epoch when the tail syncs.
  std::uint64_t appended_epoch_ = 0;

  // --- adaptive sync controller ---
  std::uint64_t adaptive_watermark_fp_ = 0;
  bool reconfig_pressure_ = false;

  // --- journal-shipping state (see the accessors above) ---
  std::uint64_t journal_generation_ = 0;
  std::vector<std::uint8_t> retained_tail_;
  bool rebase_ok_ = true;
  std::uint64_t rebase_epoch_ = 0;
  /// Highest current-generation end offset ever handed to a shipper; a
  /// recovery that truncates below it must start a new generation, because
  /// replicas may hold bytes the journal no longer agrees with.
  std::uint64_t ship_horizon_ = kHeaderSize;
};

/// An engine on fresh in-memory devices — what every simulated creation
/// site (processors, warm standbys, quorum members) funnels through.
[[nodiscard]] std::unique_ptr<DurabilityEngine> make_memory_engine(
    DurableOptions options = {});

/// Fixed-point scale of the adaptive watermark (8 fractional bits).
inline constexpr std::uint32_t kAdaptiveFracBits = 8;
/// Modeled fixed cost of one sync, in byte-equivalents: the controller
/// steers flushed-bytes-per-sync into [kAdaptiveGain, 4·kAdaptiveGain]
/// times this, i.e. it keeps sync overhead a small fixed fraction of the
/// bytes it amortizes.
inline constexpr std::uint64_t kAdaptiveSyncCostBytes = 4096;
inline constexpr std::uint64_t kAdaptiveGain = 16;

}  // namespace arfs::storage::durable
