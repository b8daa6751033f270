// Write-ahead journal of stable-storage commits.
//
// Layout on the backend:
//
//   [8-byte magic "ARFSWAL2"]
//   repeated records:  [u32 payload_len][u32 crc32(payload)][payload]
//   payload:           u8 kind, then
//     kind 0 (commit):      u64 epoch, u64 cycle, u32 n,
//                           n × { varint key_id, tagged value }
//     kind 1 (dictionary):  varint first_id, varint count, count × string
//
// Keys are interned: the first commit that mentions a key is preceded by a
// dictionary record assigning it the next id, and from then on the key ships
// as a 1–2 byte varint instead of a length-prefixed string. Dictionary
// records are ordinary journal records — CRC-guarded, scanned in order, and
// replayed on recovery — so the id space is exactly reconstructible from the
// valid prefix. The dictionary resets whenever the journal is compacted
// (truncated back to its header after a snapshot).
//
// One commit record per StableStorage::commit — the journal is the disk
// image of the paper's "sequence of completed instructions". Scanning stops
// at the first record that is short (torn write), fails its CRC
// (corruption), references an unknown key id, or breaks epoch monotonicity;
// everything after that offset is untrusted, which is the device-level
// analogue of the fail-stop rule that a halted processor's state is the last
// *successfully completed* step, never a partial one.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "arfs/common/types.hpp"
#include "arfs/storage/durable/backend.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/storage/value.hpp"

namespace arfs::storage::durable {

inline constexpr std::uint8_t kJournalMagic[8] = {'A', 'R', 'F', 'S',
                                                  'W', 'A', 'L', '2'};
inline constexpr std::uint64_t kHeaderSize = 8;
/// Sanity cap on one record's payload, so a corrupted length prefix cannot
/// demand a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxPayload = 1u << 28;

enum : std::uint8_t { kRecordCommit = 0, kRecordDict = 1 };
/// Smallest encoding of one commit entry: a 1-byte key id, a value tag and
/// a 1-byte value. A record whose entry count exceeds its remaining bytes
/// over this is malformed.
inline constexpr std::size_t kMinCommitEntryBytes = 3;

/// One decoded commit record. Key ids are resolved back to strings while
/// scanning, so consumers never see the interned form.
struct JournalRecord {
  std::uint64_t epoch = 0;  ///< StableStorage commit epoch (1-based).
  Cycle cycle = 0;          ///< Frame the commit was stamped with.
  std::vector<std::pair<std::string, Value>> entries;
  /// Interned key id of each entry, parallel to `entries` (what actually
  /// sits on the device; surfaced for arfsctl's journal dump).
  std::vector<std::uint32_t> entry_ids;
  std::uint64_t offset = 0;  ///< Byte offset of the record envelope.
};

/// One dictionary record seen while scanning (arfsctl's journal dump).
struct DictRecordInfo {
  std::uint64_t offset = 0;    ///< Byte offset of the record envelope.
  std::uint32_t first_id = 0;  ///< First id the record assigns.
  std::uint32_t count = 0;     ///< Keys announced.
};

/// Result of scanning a journal device end to end.
struct ScanResult {
  bool header_ok = false;
  std::vector<JournalRecord> records;   ///< Valid commit prefix, in order.
  std::vector<std::string> dict;        ///< Interned keys, indexed by id.
  std::vector<DictRecordInfo> dict_records;  ///< Dictionary records seen.
  std::uint64_t valid_bytes = 0;        ///< End of the last valid record.
  bool truncated = false;               ///< A torn/corrupt tail was found.
  std::string reason;                   ///< Why scanning stopped early.
};

/// An id-ordered list of key names whose strings keep their storage when
/// the list is cleared, so a dictionary that is reset and refilled with the
/// same names (every journal compaction) allocates nothing. Copies carry
/// only the live names.
class NamePool {
 public:
  NamePool() = default;
  NamePool(const NamePool& other);
  NamePool(NamePool&&) noexcept = default;
  NamePool& operator=(const NamePool& other);
  NamePool& operator=(NamePool&&) noexcept = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] const std::string& operator[](std::size_t id) const {
    return slots_[id];
  }
  /// The live names, in id order.
  [[nodiscard]] std::span<const std::string> names() const {
    return {slots_.data(), size_};
  }
  void push_back(std::string_view name);
  /// Replaces the live names with `names`.
  void assign(std::span<const std::string> names);
  void clear() { size_ = 0; }

 private:
  std::vector<std::string> slots_;  ///< [0, size_) live; the rest spare.
  std::size_t size_ = 0;
};

/// Maps a journal stream's dictionary ids to one store's KeyIds, looking a
/// name up in the store the first time its id is used. Derived state:
/// clear() it whenever the dictionary or the store's name table is
/// replaced. Once its table has grown, nothing is allocated.
class DictKeyMap {
 public:
  /// The KeyId in `store` of dictionary id `id` (an index into `names`).
  [[nodiscard]] KeyId key(StableStorage& store,
                          std::span<const std::string> names,
                          std::uint32_t id);
  void clear() { ids_.clear(); }

 private:
  /// Marks an id whose name has not been looked up yet.
  static constexpr std::uint32_t kUnresolved = ~std::uint32_t{0};
  std::vector<std::uint32_t> ids_;  ///< Dictionary id -> KeyId value.
};

/// The writer's side of the key dictionary: maps keys to stable varint ids,
/// in insertion order. An engine keeps one per journal and resets it when
/// the journal is compacted; recovery rebuilds it from the journal's
/// dictionary records.
///
/// Lookups by a store's KeyId go through a dense table (KeyId -> id), so
/// the per-commit path compares one name at most instead of searching. The
/// table is derived state: copies and reset() leave it empty, and it
/// refills on use, because a copy may serve a store whose KeyIds differ.
class KeyInterner {
 public:
  KeyInterner() = default;
  KeyInterner(const KeyInterner& other);
  KeyInterner(KeyInterner&&) noexcept = default;
  KeyInterner& operator=(const KeyInterner& other);
  KeyInterner& operator=(KeyInterner&&) noexcept = default;

  /// Interns every key of `store`'s staged batch once and returns their ids
  /// in pending() order (a view of a reused buffer, valid until the next
  /// call). A key seen for the first time gets the next free id and is
  /// staged in fresh() until take_fresh().
  std::span<const std::uint32_t> intern_pending(const StableStorage& store);

  /// Keys interned since the last take_fresh(), in id order. encode_commit
  /// flushes these into a dictionary record ahead of the commit record.
  [[nodiscard]] std::span<const std::string> fresh() const {
    return names().subspan(keys_.size() - fresh_);
  }
  void take_fresh() { fresh_ = 0; }

  /// Appends `key` as the next id even if the name is already known — a
  /// dictionary record read back from a device assigns ids by position
  /// (recovery rebuilds the dictionary this way).
  void append(std::string_view key);
  void reset();

  [[nodiscard]] std::size_t size() const { return keys_.size(); }
  /// The whole dictionary in id order (full-copy reseeds ship it as part of
  /// the transferred state).
  [[nodiscard]] std::span<const std::string> names() const {
    return keys_.names();
  }

 private:
  /// The id of `store`'s key `key`: the KeyId table, then the name.
  std::uint32_t intern(const StableStorage& store, KeyId key);
  /// The id of the name `key`, assigned on first sight.
  std::uint32_t intern(std::string_view key);
  /// First position of sorted_ whose name is not below `key`.
  [[nodiscard]] std::size_t lower_bound(std::string_view key) const;
  /// Adds `key` as the next id at `pos` of sorted_.
  std::uint32_t add(std::string_view key, std::size_t pos);

  NamePool keys_;                   ///< id -> key.
  std::vector<std::uint32_t> sorted_;  ///< Ids in name order.
  std::uint32_t fresh_ = 0;         ///< The newest ids not yet flushed.
  /// KeyId -> id + 1 (0: not looked up yet). Derived; never copied.
  std::vector<std::uint32_t> by_key_;
  /// intern_pending's id list (scratch; never copied).
  std::vector<std::uint32_t> pending_ids_;
};

/// Appends the journal magic when the device is empty. Returns false when an
/// existing header does not match (foreign or damaged file).
bool ensure_header(JournalBackend& backend);

/// Encodes `store`'s staged batch (StableStorage::pending(), name order)
/// as one commit into `out`: a dictionary record first when `dict` has
/// unflushed fresh keys, then the commit record itself, reading each key's
/// name through the store's table. `out` is appended to, not cleared, and
/// no temporary buffers are allocated — payloads are encoded in place and
/// their envelopes back-patched.
void encode_commit(std::vector<std::uint8_t>& out, KeyInterner& dict,
                   std::uint64_t epoch, Cycle cycle,
                   const StableStorage& store);

/// Allocation accounting of one replay's payload reads (the decode mirror
/// of the encode path's reused scratch buffer).
struct ScanStats {
  /// Payload reads served inside the scratch buffer's existing capacity.
  std::uint64_t payload_reuses = 0;
  /// Payload reads that had to grow the scratch buffer.
  std::uint64_t payload_allocs = 0;
};

/// Scans the whole device, collecting the valid record prefix (arfsctl's
/// journal tools and tests). Never throws on malformed content — damage is
/// reported, not fatal.
[[nodiscard]] ScanResult scan_journal(const JournalBackend& backend);

/// What recovery's journal replay found and did.
struct JournalReplay {
  std::uint64_t valid_bytes = 0;   ///< End of the last valid record.
  bool truncated = false;          ///< A torn/corrupt tail was found.
  const char* reason = "";         ///< Why scanning stopped early.
  std::uint64_t records_applied = 0;
  std::uint64_t records_skipped = 0;  ///< At or below `after_epoch`.
  /// Epoch of the last record applied (`after_epoch` when none was).
  std::uint64_t last_epoch = 0;
};

/// Recovery's scan: the same walk as scan_journal, but every valid commit
/// record with an epoch above `after_epoch` is restored straight into `out`
/// (stamped with its cycle) and `dict` is rebuilt from the dictionary
/// records, so no record is materialized. `payload` and `keys` are
/// caller-owned scratch: the payload buffer and the map from dictionary
/// ids to `out`'s KeyIds (cleared first). `stats`, when given, receives
/// the payload buffer's reuse/allocation counts, which the engine surfaces
/// as DurabilityStats::decode_buffer_reuses.
JournalReplay replay_journal(const JournalBackend& backend,
                             std::uint64_t after_epoch, StableStorage& out,
                             KeyInterner& dict,
                             std::vector<std::uint8_t>& payload,
                             DictKeyMap& keys, ScanStats* stats = nullptr);

/// Renders a record for arfsctl's `journal dump`.
[[nodiscard]] std::string to_string(const JournalRecord& record);

}  // namespace arfs::storage::durable
