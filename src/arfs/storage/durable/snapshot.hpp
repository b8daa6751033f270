// Snapshots of the committed store.
//
// The snapshot device is itself an append-only journal of full images
// (magic "ARFSSNP1", then CRC-guarded records in the journal envelope):
//
//   payload: u64 epoch, u64 n, n × { string key, tagged value,
//                                    u64 committed_at }
//
// Appending a fresh image rather than rewriting in place means a crash in
// the middle of snapshotting leaves the *previous* image intact — recovery
// simply uses the last image that survives its CRC and falls back to pure
// journal replay when none does. After an image is durably synced the
// write-ahead journal is compacted, so steady-state recovery cost is one
// image plus the commits since it.
#pragma once

#include <cstdint>
#include <vector>

#include "arfs/common/types.hpp"
#include "arfs/storage/durable/backend.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/storage/value.hpp"

namespace arfs::storage::durable {

inline constexpr std::uint8_t kSnapshotMagic[8] = {'A', 'R', 'F', 'S',
                                                   'S', 'N', 'P', '1'};

/// Smallest encoding of one image entry: an empty key (its 4-byte length),
/// a bool value (tag and byte) and the commit cycle. An image whose entry
/// count exceeds its remaining bytes over this is malformed.
inline constexpr std::size_t kMinSnapshotEntryBytes = 14;

/// Appends (but does not sync) a full image of `store`'s committed entries
/// at its commit epoch. The image is encoded into `buf` (cleared first, so
/// a caller that keeps the buffer allocates nothing once it is large
/// enough), walking the store's slots in name order, with the envelope
/// written in place. Writes the device header first when the device is
/// empty. Returns false when an existing header does not match.
bool append_snapshot(JournalBackend& backend, const StableStorage& store,
                     std::vector<std::uint8_t>& buf);

/// What a walk of the snapshot device found. The walk (the one snapshot
/// scanner) checks the header, then each image's envelope, CRC and
/// structure in device order, stops at the first bad one, and builds no
/// entry. Malformed content is reported, never fatal.
struct SnapshotWalk {
  bool header_ok = false;
  std::size_t images = 0;           ///< Valid images found.
  std::uint64_t valid_bytes = 0;    ///< End of the last valid image.
  bool truncated = false;           ///< Torn/corrupt tail after the images.
  const char* reason = "";
  std::uint64_t last_offset = 0;    ///< Envelope offset of the last image.
  std::uint64_t previous_offset = 0;  ///< ...and of the one before it.
  std::uint64_t last_epoch = 0;     ///< Epoch of the last image.
};

/// The walk alone (snapshot GC), reading payloads into the caller's reused
/// `payload` buffer.
[[nodiscard]] SnapshotWalk walk_snapshots(const JournalBackend& backend,
                                          std::vector<std::uint8_t>& payload);

/// Recovery's read: the same walk, then the last valid image is restored
/// straight into `out` (no image is materialized).
SnapshotWalk restore_last_snapshot(const JournalBackend& backend,
                                   StableStorage& out,
                                   std::vector<std::uint8_t>& payload);

}  // namespace arfs::storage::durable
