// Memory-mapped result arena.
//
// Evidence-producing sweeps (dependability evidence rows, pooled-mission
// evidence) are capped by RAM when their rows live in heap vectors. MappedArena moves those rows into a growable file-backed
// mmap so the working set is bounded by *in-flight* chunks, not total
// samples: a producer allocates a chunk-granular region, writes rows through
// a plain pointer, and seals it; sealing CRC32-guards the chunk header
// (slicing-by-16, the journal's tables) and — batched by the same SyncPolicy
// watermarks the durable engine uses — msync()s and
// madvise(MADV_DONTNEED)s the batch's coalesced page spans. The bytes stay
// in the page cache / on disk; the RSS does not. A consumer read()s the region (CRC
// re-checked → a clean arfs::Error on corruption, never UB), then
// release()s it to drop its pages again.
//
// Layout (stable, scannable offline by `arfsctl arena stat|verify`):
//   file   := file-header chunk*           (all offsets 8-byte aligned)
//   header := magic(8) version(4) reserved(4) slab_bytes(8)        = 24 B
//   chunk  := magic(4) state(4) seq(8) payload_len(4) crc32(4) payload pad8
// The file grows in page-aligned slab extents (ftruncate + one mmap per
// extent, oversized chunks get a dedicated slab-multiple extent). An extent,
// once mapped, is never remapped or moved — region pointers handed to
// workers stay valid for the arena's lifetime (address-stable chunk tables).
// Chunks never straddle extents; a short extent tail is either an explicit
// padding chunk or zeros (the scanner skips to the next slab boundary).
//
// With an empty path the arena falls back to heap-backed extents with the
// same layout and API — every caller and test runs unchanged where mmap is
// unavailable; only the paging behaviour differs (release() frees the
// extent once all of its regions are released, instead of DONTNEED).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arfs/storage/durable/engine.hpp"

namespace arfs::storage {

struct ArenaOptions {
  /// Backing file; created (or truncated) on open. Empty = in-memory
  /// fallback extents with identical layout and semantics.
  std::string path;
  /// Extent growth quantum; rounded up to a whole number of pages.
  std::size_t slab_bytes = 4u << 20;
  /// When sealed chunks are msync()ed and their pages dropped:
  /// every-commit syncs+drops each chunk at seal(); bytes/frames watermarks
  /// batch N sealed bytes / N sealed chunks per sync — the durable engine's
  /// group-commit knob applied to the arena write-back path.
  durable::SyncPolicy sync = durable::SyncPolicy::bytes(8u << 20);
  /// madvise(MADV_DONTNEED) sealed chunks after msync (file-backed only).
  /// Off keeps sealed pages resident — useful when the consumer runs hot on
  /// the heels of the producer and refaults would dominate.
  bool drop_after_sync = true;
};

/// Growable file-backed memory-mapped chunk allocator. Thread-safe:
/// allocate/seal/read/release may be called from concurrent shard workers;
/// the returned payload pointers are written lock-free by their owning
/// worker (one region = one writer, the fleet's per-chunk slot discipline).
class MappedArena {
 public:
  using RegionId = std::uint64_t;
  static constexpr RegionId kNoRegion = ~RegionId{0};

  explicit MappedArena(ArenaOptions options = {});
  ~MappedArena();

  MappedArena(const MappedArena&) = delete;
  MappedArena& operator=(const MappedArena&) = delete;

  /// Allocates an open region with `payload_bytes` of writable payload.
  [[nodiscard]] RegionId allocate(std::size_t payload_bytes);

  /// Writable payload pointer of an open region. Stable until the arena is
  /// destroyed (extents are never remapped); 8-byte aligned.
  [[nodiscard]] std::uint8_t* data(RegionId id);

  /// Seals an open region: computes the payload CRC32 into the chunk header
  /// and hands the chunk to the batched write-back path (msync + page drop
  /// per the SyncPolicy). The payload is immutable afterwards.
  void seal(RegionId id);

  /// Read-only payload of a sealed region, CRC-verified on every call.
  /// Throws arfs::Error on a CRC mismatch (a corrupted chunk is a clean
  /// error, never UB) and ContractViolation on misuse (open/released ids).
  [[nodiscard]] const std::uint8_t* read(RegionId id,
                                         std::size_t* payload_bytes = nullptr) const;

  /// Payload size of a region in any state.
  [[nodiscard]] std::size_t region_bytes(RegionId id) const;

  /// Releases a sealed region. Once every region of the backing extent is
  /// released the extent's pages are dropped wholesale (file-backed) or the
  /// extent freed (in-memory) — extent-granular because per-chunk drops are
  /// defeated by fault-around remapping neighbours. The id is dead —
  /// further read()s throw ContractViolation.
  void release(RegionId id);

  /// Flushes the pending write-back batch (msync + drop) regardless of
  /// watermarks — end-of-run durability point.
  void sync();

  [[nodiscard]] bool file_backed() const { return file_backed_; }
  [[nodiscard]] const std::string& path() const { return options_.path; }
  [[nodiscard]] const ArenaOptions& options() const { return options_; }

  struct Stats {
    std::uint64_t regions_allocated = 0;
    std::uint64_t regions_sealed = 0;
    std::uint64_t regions_released = 0;
    std::uint64_t payload_bytes = 0;   ///< Sum of allocated payload sizes.
    std::uint64_t file_bytes = 0;      ///< Backing size incl. headers/padding.
    std::uint64_t extents = 0;
    std::uint64_t syncs = 0;           ///< msync batches flushed.
    std::uint64_t dropped_bytes = 0;   ///< Page spans handed to DONTNEED.
    std::uint64_t crc_checks = 0;      ///< read() verifications performed.
  };
  [[nodiscard]] Stats stats() const;

  // On-disk constants, shared with the offline scanner.
  static constexpr std::uint64_t kFileMagic = 0x314E5241'53465241ULL;  // "ARFSARN1"
  static constexpr std::uint32_t kFileVersion = 1;
  static constexpr std::uint32_t kChunkMagic = 0x4B4E4843;  // "CHNK"
  static constexpr std::uint32_t kPadMagic = 0x44444150;    // "PADD"
  static constexpr std::size_t kFileHeaderBytes = 24;
  static constexpr std::size_t kChunkHeaderBytes = 24;

 private:
  enum class State : std::uint8_t { kOpen, kSealed, kReleased };

  struct Extent {
    std::uint8_t* base = nullptr;
    std::uint64_t file_offset = 0;
    std::size_t bytes = 0;
    std::unique_ptr<std::uint8_t[]> heap;  ///< In-memory fallback storage.
    std::uint64_t live_regions = 0;        ///< For in-memory extent freeing.
  };

  struct RegionInfo {
    std::uint32_t extent = 0;
    State state = State::kOpen;
    std::uint64_t offset = 0;   ///< Chunk start, relative to extent base.
    std::uint32_t payload = 0;
  };

  void grow_locked(std::size_t need);
  void flush_locked();
  [[nodiscard]] std::uint8_t* chunk_base_locked(const RegionInfo& r) const;

  ArenaOptions options_;
  bool file_backed_ = false;
  int fd_ = -1;
  std::size_t page_ = 4096;

  mutable std::mutex mu_;
  std::vector<Extent> extents_;
  std::vector<RegionInfo> regions_;
  std::size_t cursor_extent_ = 0;  ///< Extent currently being carved.
  std::size_t cursor_off_ = 0;     ///< Next free offset within it.
  std::uint64_t file_bytes_ = 0;

  std::vector<RegionId> pending_;      ///< Sealed, awaiting msync/drop.
  std::uint64_t pending_bytes_ = 0;
  mutable Stats stats_;
};

/// Offline structural scan of an arena file (no mmap; plain reads). Used by
/// `arfsctl arena stat|verify` and tests.
struct ArenaScan {
  bool ok = false;            ///< Header valid and every chunk accounted for.
  std::string error;          ///< First structural problem, empty when ok.
  std::uint64_t file_bytes = 0;
  std::uint64_t slab_bytes = 0;
  std::uint64_t chunks = 0;          ///< Data chunks (open + sealed).
  std::uint64_t sealed = 0;          ///< Chunks with a valid CRC.
  std::uint64_t open = 0;            ///< Chunks never sealed (no CRC yet).
  std::uint64_t crc_failures = 0;    ///< Sealed chunks whose CRC mismatches.
  std::uint64_t payload_bytes = 0;
  std::uint64_t padding_bytes = 0;   ///< Padding chunks + zero tails.
};

[[nodiscard]] ArenaScan scan_arena_file(const std::string& path);

}  // namespace arfs::storage
