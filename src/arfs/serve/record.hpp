// Frame-stream records.
//
// A serving session streams one record per published event to its client:
// frame records carry the mission's deterministic per-frame telemetry, gap
// records make skipped frames explicit (a slow consumer loses frames, never
// silently), and the end record closes the stream with the producer's own
// totals so a client can audit what it received against what was produced.
//
// Determinism contract: a frame record is a pure function of the System's
// state at the end of the frame, and fold_record() folds exactly the fields
// every execution mode shares — so the digest of a streamed session equals
// the digest an in-process run_mission_sweep oracle computes over the same
// mission, bit for bit, regardless of transport. Transport-only metadata
// (sequence numbers, latency stamps, CRCs) deliberately stays out of the
// fold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "arfs/common/types.hpp"

namespace arfs::core {
class System;
}

namespace arfs::serve {

enum class RecordKind : std::uint32_t {
  kFrame = 1,  ///< One mission frame's telemetry.
  kGap = 2,    ///< `data0` frames starting at `frame` were skipped.
  kEnd = 3,    ///< Stream close: producer totals + producer digest.
};

[[nodiscard]] const char* to_string(RecordKind kind);

/// One streamed record. The payload words are kind-specific:
///   kFrame: data0 = System::digest() at end of frame,
///           data1 = cumulative frames_run,
///           data2 = (reconfigs_completed << 32) | region_relocations;
///   kGap:   frame = first skipped mission frame, data0 = skipped count;
///   kEnd:   data0 = frames produced, data1 = frames skipped,
///           data2 = the producer's running digest (fold_record over every
///           frame it produced, delivered or skipped).
struct FrameRecord {
  RecordKind kind = RecordKind::kFrame;
  std::uint64_t seq = 0;    ///< Contiguous per-session record index.
  std::uint64_t frame = 0;  ///< Mission frame the record describes.
  std::uint64_t data0 = 0;
  std::uint64_t data1 = 0;
  std::uint64_t data2 = 0;
};

/// Fixed wire size of an encoded record (little-endian, 8-byte tail pad).
constexpr std::size_t kRecordBytes = 48;

/// Writes the record's wire encoding into the caller's buffer.
void encode_record(std::span<std::uint8_t, kRecordBytes> out,
                   const FrameRecord& record);
/// Appends the record's wire encoding to `out` (exactly kRecordBytes).
void encode_record(std::vector<std::uint8_t>& out, const FrameRecord& record);

/// Decodes a record from `n` bytes at `data`. Returns false when the bytes
/// are short or the kind is unknown.
[[nodiscard]] bool decode_record(const std::uint8_t* data, std::size_t n,
                                 FrameRecord& out);

/// Builds the frame record for `system` standing at the end of mission
/// frame `frame`. Deterministic: both the serving session and the
/// in-process oracle call this, so their records are bit-identical.
[[nodiscard]] FrameRecord make_frame_record(const core::System& system,
                                            Cycle frame);

/// FNV-1a basis shared with the fleet report digests.
constexpr std::uint64_t kDigestBasis = 0xCBF29CE484222325ULL;

/// Folds one record into a running FNV-1a digest: kind, frame, and the
/// three payload words — never seq, stamps, or CRCs (transport metadata
/// must not move the digest).
void fold_record(std::uint64_t& digest, const FrameRecord& record);

}  // namespace arfs::serve
