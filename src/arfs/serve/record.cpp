#include "arfs/serve/record.hpp"

#include <cstring>

#include "arfs/core/system.hpp"

namespace arfs::serve {

namespace {

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         (static_cast<std::uint64_t>(get_u32(in + 4)) << 32);
}

}  // namespace

const char* to_string(RecordKind kind) {
  switch (kind) {
    case RecordKind::kFrame:
      return "frame";
    case RecordKind::kGap:
      return "gap";
    case RecordKind::kEnd:
      return "end";
  }
  return "unknown";
}

void encode_record(std::vector<std::uint8_t>& out, const FrameRecord& record) {
  const std::size_t at = out.size();
  out.resize(at + kRecordBytes);
  encode_record(std::span<std::uint8_t, kRecordBytes>(out.data() + at,
                                                      kRecordBytes),
                record);
}

void encode_record(std::span<std::uint8_t, kRecordBytes> out,
                   const FrameRecord& record) {
  std::uint8_t* p = out.data();
  put_u32(p, static_cast<std::uint32_t>(record.kind));
  put_u32(p + 4, 0);  // reserved
  put_u64(p + 8, record.seq);
  put_u64(p + 16, record.frame);
  put_u64(p + 24, record.data0);
  put_u64(p + 32, record.data1);
  put_u64(p + 40, record.data2);
}

bool decode_record(const std::uint8_t* data, std::size_t n, FrameRecord& out) {
  if (n < kRecordBytes) return false;
  const std::uint32_t kind = get_u32(data);
  if (kind != static_cast<std::uint32_t>(RecordKind::kFrame) &&
      kind != static_cast<std::uint32_t>(RecordKind::kGap) &&
      kind != static_cast<std::uint32_t>(RecordKind::kEnd)) {
    return false;
  }
  out.kind = static_cast<RecordKind>(kind);
  out.seq = get_u64(data + 8);
  out.frame = get_u64(data + 16);
  out.data0 = get_u64(data + 24);
  out.data1 = get_u64(data + 32);
  out.data2 = get_u64(data + 40);
  return true;
}

FrameRecord make_frame_record(const core::System& system, Cycle frame) {
  const core::SystemStats& stats = system.stats();
  FrameRecord record;
  record.kind = RecordKind::kFrame;
  record.frame = frame;
  record.data0 = system.digest();
  record.data1 = stats.frames_run;
  record.data2 = (system.scram().stats().reconfigs_completed << 32) |
                 (stats.region_relocations & 0xFFFFFFFFULL);
  return record;
}

void fold_record(std::uint64_t& digest, const FrameRecord& record) {
  constexpr std::uint64_t kPrime = 0x100000001B3ULL;
  const auto mix = [&](std::uint64_t v) {
    digest ^= v;
    digest *= kPrime;
  };
  mix(static_cast<std::uint64_t>(record.kind));
  mix(record.frame);
  mix(record.data0);
  mix(record.data1);
  mix(record.data2);
}

}  // namespace arfs::serve
