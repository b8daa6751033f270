// Lock-free SPSC shared-memory frame ring.
//
// The fast path of the serving layer: one producer (the simulator pump)
// publishes fixed-size frame slots into a ring that one consumer (the
// session's client, same process or another via a file-backed mapping)
// drains without ever making the producer wait. The protocol is the classic
// single-producer/single-consumer pair of monotone cursors:
//
//   * `published` — owned by the producer; slots [consumed, published) hold
//     live records. A publish writes the whole slot (record bytes, latency
//     stamp, CRC32 over the record, its sequence number), then advances
//     `published` with a release store.
//   * `consumed` — owned by the consumer; advanced with a release store
//     after the slot's CRC and sequence have been verified.
//
// A full ring rejects the publish (`try_publish` returns false) — the
// caller skips the frame and later emits an explicit gap record; nothing in
// this layer ever blocks. Slot headers are seq/CRC-guarded in the style of
// storage::MappedArena chunks: a consumer (even one attaching to the file
// after the fact) re-verifies every slot and surfaces corruption as a clean
// arfs::Error, never UB.
//
// With a path the ring lives in a file-backed shared mapping (create() once
// on the serving side, attach() from any other mapping of the same file);
// cross-mapping cursor handshakes go through std::atomic_ref on the mapped
// words. Consumed spans can be reclaimed MappedArena-style: once the
// consumer has drained `reclaim_watermark_bytes`, the span's pages are
// msync(MS_ASYNC)ed and MADV_DONTNEEDed, so a long-lived session's resident
// set is bounded by the in-flight window, not the ring size. Without a path
// the ring is heap-backed with identical layout and semantics (in-process
// sessions, tests).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "arfs/serve/record.hpp"

namespace arfs::serve {

struct RingOptions {
  /// Backing file; empty = heap-backed (single-process sessions).
  std::string path;
  /// Bytes per slot, header included; rounded up to a multiple of 8. Must
  /// hold kSlotHeaderBytes + kRecordBytes.
  std::uint32_t slot_bytes = 128;
  /// Slot count; rounded up to a power of two (cursor masking).
  std::uint32_t slot_count = 64;
  /// Consumer-side reclaim watermark: after this many consumed slot bytes,
  /// the drained span is msync(MS_ASYNC)ed and its pages dropped with
  /// MADV_DONTNEED (file-backed mappings only). 0 disables reclaim.
  std::size_t reclaim_watermark_bytes = 0;
};

struct RingStats {
  std::uint64_t published = 0;      ///< Records published.
  std::uint64_t consumed = 0;       ///< Records consumed by this endpoint.
  std::uint64_t publish_fails = 0;  ///< try_publish rejections (ring full).
  std::uint64_t reclaims = 0;       ///< Consumed-span reclaim batches.
  std::uint64_t reclaimed_bytes = 0;  ///< Bytes handed to MADV_DONTNEED.
};

class FrameRing {
 public:
  /// Creates a ring: file-backed shared mapping when options.path is set
  /// (the file is created/truncated to the ring size), heap-backed
  /// otherwise. Throws arfs::Error when the file cannot be created.
  [[nodiscard]] static std::unique_ptr<FrameRing> create(RingOptions options);

  /// Maps an existing ring file (the consumer side of a cross-process
  /// session). Throws arfs::Error when the file is missing or its header
  /// does not scan as a ring.
  [[nodiscard]] static std::unique_ptr<FrameRing> attach(
      const std::string& path, std::size_t reclaim_watermark_bytes = 0);

  ~FrameRing();
  FrameRing(const FrameRing&) = delete;
  FrameRing& operator=(const FrameRing&) = delete;

  // --- producer side ---

  /// Publishes one record with its latency stamp. Returns false when the
  /// ring is full — the caller must treat the frame as skipped; this call
  /// never waits for the consumer.
  [[nodiscard]] bool try_publish(const FrameRecord& record,
                                 std::uint64_t stamp_ns);

  /// Marks the stream closed (no further publishes). Consumers drain the
  /// remaining slots and then observe kClosed.
  void close();

  /// Rewinds the ring in place for a new stream: both cursors to 0, the
  /// closed flag cleared and the stats zeroed; the geometry and the
  /// mapping are kept. Stale slot bytes need no wipe, because a consumer
  /// reads only slots below `published`. Precondition: no consumer holds
  /// the ring (a consumer still attached would read the next stream).
  void reset();

  // --- consumer side ---

  enum class Consume : std::uint8_t {
    kEmpty,   ///< Nothing published yet; poll again.
    kRecord,  ///< `out` holds the next record.
    kClosed,  ///< Producer closed and everything was drained.
  };

  struct Delivered {
    FrameRecord record;
    std::uint64_t stamp_ns = 0;  ///< Producer's publish stamp.
  };

  /// Consumes the next record, verifying its sequence number and CRC32.
  /// Throws arfs::Error on a corrupt slot (bad CRC or out-of-order seq).
  [[nodiscard]] Consume try_consume(Delivered& out);

  // --- observers (either side) ---

  [[nodiscard]] std::uint64_t published() const;
  [[nodiscard]] std::uint64_t consumed() const;
  [[nodiscard]] bool closed() const;
  /// Slots currently free for the producer.
  [[nodiscard]] std::uint32_t free_slots() const;
  [[nodiscard]] std::uint32_t slot_count() const { return slot_count_; }
  [[nodiscard]] std::uint32_t slot_bytes() const { return slot_bytes_; }
  [[nodiscard]] bool file_backed() const { return fd_ >= 0; }
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const RingStats& stats() const { return stats_; }

  // On-disk constants (shared with `arfsctl session`).
  static constexpr std::uint64_t kMagic = 0x31474E5253465241ULL;  // "ARFSRNG1"
  static constexpr std::uint32_t kVersion = 1;
  /// seq(8) stamp(8) crc32(4) len(4) = 24 bytes ahead of the record.
  static constexpr std::size_t kSlotHeaderBytes = 24;
  /// Header words: magic/geometry at 0, published at 64, consumed at 128,
  /// closed at 192, slots from 256 — cursor words on their own cache lines.
  static constexpr std::size_t kSlotsOffset = 256;

 private:
  FrameRing() = default;
  void map_and_validate(bool create);
  void reclaim_consumed(std::uint64_t upto_seq);

  std::string path_;
  int fd_ = -1;
  std::uint8_t* base_ = nullptr;
  std::size_t mapping_bytes_ = 0;
  std::unique_ptr<std::uint8_t[]> heap_;
  std::uint32_t slot_bytes_ = 0;
  std::uint32_t slot_count_ = 0;
  std::size_t reclaim_watermark_ = 0;
  std::uint64_t reclaim_from_ = 0;  ///< First seq not yet reclaimed.
  std::size_t page_ = 4096;
  RingStats stats_;
};

}  // namespace arfs::serve
