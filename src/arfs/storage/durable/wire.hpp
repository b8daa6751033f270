// Byte-level encoding shared by the journal and snapshot formats.
//
// Everything the durable layer puts on a device goes through these helpers so
// the two record kinds stay byte-compatible: explicit little-endian integers
// (independent of host endianness), length-prefixed strings, LEB128 varints
// for the journal's interned key ids, a tagged encoding of storage::Value
// that round-trips doubles bit-exactly, and the IEEE CRC32 that guards every
// record payload.
//
// The CRC sits on the per-commit hot path (every journaled byte is hashed,
// and every ring slot and ship batch), so crc32() folds 16-byte blocks with
// carry-less multiplication (PCLMULQDQ) on x86-64 CPUs that have it, chosen
// once at start-up. Elsewhere it runs crc32_sliced, slicing-by-16: sixteen
// compile-time tables consume the input sixteen bytes per step instead of
// one, and the last n mod 16 bytes go through an inline bytewise loop on
// the first table. The classic bytewise loop is kept as crc32_bytewise —
// the reference the tests cross-check both paths against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "arfs/storage/value.hpp"

namespace arfs::storage::durable {

/// IEEE 802.3 CRC32 (the zlib polynomial), over `n` bytes: the PCLMULQDQ
/// fold where the CPU has it, crc32_sliced otherwise.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t n);

/// The same CRC by slicing-by-16, with an inline bytewise loop for the
/// tail: crc32() on CPUs without PCLMULQDQ, exposed for cross-checking.
[[nodiscard]] std::uint32_t crc32_sliced(const std::uint8_t* data,
                                         std::size_t n);

/// Reference bytewise implementation of the same CRC. Bit-identical to
/// crc32() on every input; kept for cross-checking.
[[nodiscard]] std::uint32_t crc32_bytewise(const std::uint8_t* data,
                                           std::size_t n);

void put_u8(std::vector<std::uint8_t>& buf, std::uint8_t v);
void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v);
void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v);
/// Reserves an 8-byte [u32 len][u32 crc32(payload)] record envelope at the
/// end of `buf` and returns its position. The caller encodes the payload
/// in place after it, then close_envelope() back-patches len and crc — no
/// temporary payload buffer, no second copy.
std::size_t open_envelope(std::vector<std::uint8_t>& buf);
void close_envelope(std::vector<std::uint8_t>& buf, std::size_t envelope);
/// Unsigned LEB128 (7 bits per byte, high bit = continue). Interned key ids
/// are small, so they ship as one byte in the steady state.
void put_varint(std::vector<std::uint8_t>& buf, std::uint64_t v);
void put_string(std::vector<std::uint8_t>& buf, const std::string& s);
/// Tagged Value encoding: u8 tag (0 bool, 1 int64, 2 double, 3 string) then
/// the payload; doubles are stored as their raw IEEE-754 bit pattern.
void put_value(std::vector<std::uint8_t>& buf, const Value& v);
/// Bytes put_value appends for `v`, counted without encoding it.
[[nodiscard]] std::size_t value_wire_bytes(const Value& v);

/// Sequential decoder over a byte range. Every read checks bounds; the first
/// short or malformed read latches ok() to false and subsequent reads return
/// zero values, so callers can decode a whole record and check ok() once.
class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t n) : data_(data), end_(n) {}

  [[nodiscard]] std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }

  [[nodiscard]] std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < 8; ++i) {
      v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  /// LEB128; more than 10 bytes (or a short buffer) latches not-ok.
  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 70; shift += 7) {
      if (!take(1)) return 0;
      const std::uint8_t byte = data_[pos_++];
      v |= std::uint64_t{byte & 0x7Fu} << shift;
      if (!(byte & 0x80u)) return v;
    }
    ok_ = false;  // more than 10 continuation bytes: not a valid u64
    return 0;
  }

  [[nodiscard]] std::string string();

  /// The same length-prefixed string, as a view into the buffer (no copy;
  /// valid while the buffer is).
  [[nodiscard]] std::string_view string_view() {
    const std::uint32_t n = u32();
    if (!take(n)) return {};
    const std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] Value value();
  /// Consumes one tagged value without building it (validation walks).
  void skip_value();

  [[nodiscard]] bool ok() const { return ok_; }
  /// Bytes not yet consumed. Decoders check a declared element count
  /// against it before reserving, so a hostile count cannot demand memory
  /// the payload could never fill.
  [[nodiscard]] std::size_t remaining() const { return end_ - pos_; }
  /// True when every byte was consumed and no read failed.
  [[nodiscard]] bool exhausted() const { return ok_ && pos_ == end_; }

 private:
  [[nodiscard]] bool take(std::size_t n) {
    if (!ok_ || end_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t end_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace arfs::storage::durable
