// Journal shipping: warm-start replication of a durable store's WAL.
//
// Relocating an application today means polling the source processor's
// *entire* stable store (core::System's peer-reader path) — O(state) on the
// bus at the worst possible moment, the middle of a reconfiguration. A
// JournalShipper instead tails a source DurabilityEngine's journal and
// emits framed byte batches that a ShippedReplica replays into a standby
// StableStorage, so by the time a relocation is ordered the standby already
// holds the source's last durable commit boundary and only the un-shipped
// tail has to move. The standby store is stable storage in the fail-stop
// model (§5.1): it survives the replica's own halt, so the replica keeps no
// journal of its own.
//
// The stream is the journal itself: ARFSWAL2 records are already
// CRC-guarded, dictionary records already precede the commits that use
// their ids, and epochs are already monotone — so a batch is just a raw
// byte range [offset, offset+n) of the source journal, CRC-framed once more
// for transit. Batches may split records at arbitrary byte positions; the
// replica buffers the partial tail and resumes when the next batch arrives
// (a per-frame TDMA byte budget falls out for free).
//
// Invariants that make this safe under fail-stop (§5.1):
//  * Only *synced* journal bytes are ever shipped. The replica can never
//    observe state the source's devices would not preserve across a crash,
//    so "poll the replica" and "poll the failed processor" agree.
//  * Journal compaction (snapshot) and lossy recovery (a truncated synced
//    tail) each start a new journal *generation*. A replica that consumed
//    the whole previous generation rebases onto the fresh journal; the
//    engine retains the previous generation's synced bytes so replicas that
//    lag one compaction can still catch up; anything older is a lost
//    cursor, and the owner must fall back to a full-state copy.
//  * Replay mirrors recovery exactly: records with epochs the replica
//    already holds are skipped, everything else is restored with its
//    original commit cycle, so the replica fingerprint is bit-identical to
//    the source's commit-boundary fingerprint.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arfs/common/types.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/stable_storage.hpp"

namespace arfs::storage::durable {

/// Resume point of a shipped stream: the next source-journal byte the
/// replica needs, within a journal generation, plus the last commit epoch
/// it applied (the replay skip horizon).
struct ShipCursor {
  std::uint64_t generation = 0;
  std::uint64_t offset = kHeaderSize;  ///< Next byte wanted from the source.
  std::uint64_t epoch = 0;             ///< Last commit epoch applied.
};

/// One framed batch: a raw byte range of the source journal, CRC-guarded
/// for transit. `offset` is the source offset of bytes.front().
struct ShipBatch {
  std::uint64_t generation = 0;
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> bytes;
  std::uint32_t crc = 0;  ///< crc32(bytes) — transit guard.
};

/// Wire framing for a batch: u64 generation, u64 offset, u32 length, the
/// raw bytes, u32 transit CRC (arfsctl's offline shipping and tests; the
/// in-process bus hands the struct over directly).
void encode_batch(std::vector<std::uint8_t>& out, const ShipBatch& batch);
/// Decodes one framed batch; nullopt on a short or malformed frame (the
/// batch CRC itself is verified by ShippedReplica::apply).
[[nodiscard]] std::optional<ShipBatch> decode_batch(
    const std::uint8_t* data, std::size_t n);

enum class ShipStatus : std::uint8_t {
  kUpToDate,    ///< Replica holds every synced byte; nothing to ship.
  kBatch,       ///< A batch was produced.
  kRebase,      ///< Journal compacted under a caught-up replica: rebase.
  kCursorLost,  ///< Cursor predates the oldest retained offset: full copy.
};

/// Reads batches out of a source engine's journal for a given cursor.
/// Stateless between calls — the cursor is the replica's, so one shipper
/// can serve any number of replicas at different positions.
class JournalShipper {
 public:
  explicit JournalShipper(DurabilityEngine& engine) : engine_(&engine) {}

  /// Fills `out` with up to `max_bytes` of shippable journal content at
  /// `cursor`. Ships only synced bytes (what a crash preserves). Serves the
  /// retained previous generation to replicas that lag one compaction.
  ShipStatus next_batch(const ShipCursor& cursor, std::size_t max_bytes,
                        ShipBatch& out);

  [[nodiscard]] DurabilityEngine& engine() { return *engine_; }

 private:
  DurabilityEngine* engine_;
};

enum class ApplyStatus : std::uint8_t {
  kApplied,        ///< Bytes consumed; cursor advanced.
  kDuplicate,      ///< Entirely before the cursor (retransmission); ignored.
  kGap,            ///< Starts beyond the cursor; rejected.
  kBadGeneration,  ///< From a different journal generation; rejected.
  kCorrupt,        ///< Transit CRC / record CRC / malformed record. The
                   ///< cursor rewinds to the last good record boundary, so
                   ///< a retransmission retries from there.
};

/// Read-only view of a replica's digested state: the store's fingerprint
/// and epoch count, the cursor, the stream dictionary and the
/// partial-record tail, built on the stack by view(). The replica's Stats
/// are not part of it.
struct ReplicaView {
  const StableStorage* store = nullptr;
  std::span<const std::string> dict;
  std::span<const std::uint8_t> pending;
  ShipCursor cursor;
};

/// The standby side: applies shipped batches into a standby StableStorage,
/// each commit restored with its source cycle and epoch.
class ShippedReplica {
 public:
  ShippedReplica() = default;

  ApplyStatus apply(const ShipBatch& batch);

  /// Journal compacted while this replica had consumed the whole previous
  /// generation: restart the cursor at the fresh journal's head. The store
  /// is untouched (its content equals the snapshot image); `epoch` is the
  /// image's epoch, adopted as the new skip horizon.
  void rebase(std::uint64_t generation, std::uint64_t epoch);

  /// Cursor lost (lagged past the retained window, or lossy recovery):
  /// reseed the whole standby from the source's committed store. `dict` is
  /// the source journal's current dictionary (part of the copied state —
  /// later records reference ids announced before the copy), and the
  /// cursor resumes at `offset` of `generation`.
  void reset_from_full_copy(const StableStorage& source,
                            std::span<const std::string> dict,
                            std::uint64_t generation, std::uint64_t offset);

  [[nodiscard]] const ShipCursor& cursor() const { return cursor_; }
  [[nodiscard]] const StableStorage& store() const { return store_; }
  /// Bytes held beyond the last complete record (a split batch's tail).
  [[nodiscard]] std::size_t pending_bytes() const { return pending_.size(); }

  struct Stats {
    std::uint64_t batches_applied = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t records_applied = 0;
    std::uint64_t records_skipped = 0;  ///< Epoch already held (replay dup).
    std::uint64_t dict_records = 0;
    std::uint64_t crc_rejects = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t gaps = 0;
    std::uint64_t rebases = 0;
    std::uint64_t resets = 0;  ///< Full-copy reseeds.
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// The digested state, read in place (see ReplicaView).
  [[nodiscard]] ReplicaView view() const;
  /// Makes this replica a copy of `source`, keeping its own buffers: the
  /// store, the stream dictionary, the partial-record tail, the cursor and
  /// the stats. The dictionary-id memo is cleared. Only reads `source`.
  void restore_state(const ShippedReplica& source);

 private:
  /// Applies every complete record in pending_; returns false on a corrupt
  /// or malformed record (the un-applied suffix is then discarded and the
  /// cursor rewound to the last good boundary).
  bool drain_pending();
  bool apply_record(const std::uint8_t* payload, std::size_t len);
  /// Applies the commit decoded into entries_.
  void apply_commit(std::uint64_t epoch, Cycle cycle);

  StableStorage store_;
  NamePool dict_;                      ///< id -> key, this stream.
  std::vector<std::uint8_t> pending_;  ///< Partial-record tail.
  ShipCursor cursor_;
  Stats stats_;
  /// The commit being applied: (dictionary id, value) per entry. Reused.
  std::vector<std::pair<std::uint32_t, Value>> entries_;
  /// Dictionary id -> store KeyId. Derived state: never copied or
  /// digested, cleared whenever dict_ or the store is replaced.
  DictKeyMap keys_;
};

/// Bytes a full-state copy of `store`'s committed entries (optionally
/// restricted to keys starting with `prefix`) would put on the bus, using
/// the same wire encoding as the journal. The baseline warm-start replays
/// are measured against.
[[nodiscard]] std::uint64_t encoded_state_bytes(const StableStorage& store,
                                                const std::string& prefix = "");

}  // namespace arfs::storage::durable
