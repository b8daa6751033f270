#include "arfs/storage/durable/wire.hpp"

#include <array>
#include <bit>

namespace arfs::storage::durable {

namespace {

// Sixteen CRC tables for slicing-by-16. Table 0 is the classic bytewise
// table for polynomial 0xEDB88320; table t maps a byte that is t positions
// deeper in the input, so sixteen lookups advance the CRC over sixteen
// bytes at once (the wider slice roughly doubles throughput over
// slicing-by-8 — it matters for arena chunk seals and journal scans, which
// CRC megabytes per sweep).
constexpr std::array<std::array<std::uint32_t, 256>, 16> make_crc_tables() {
  std::array<std::array<std::uint32_t, 256>, 16> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t t = 1; t < 16; ++t) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[t - 1][i];
      tables[t][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr std::array<std::array<std::uint32_t, 256>, 16> kCrcTables =
    make_crc_tables();

/// Little-endian 32-bit load composed bytewise: independent of host
/// endianness and alignment.
inline std::uint32_t load_word(const std::uint8_t* p) {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}

enum : std::uint8_t { kTagBool = 0, kTagInt64 = 1, kTagDouble = 2,
                      kTagString = 3 };

}  // namespace

std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrcTables[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  // Main loop: fold the running CRC into the first four bytes of each
  // 16-byte block, then look all sixteen bytes up in their per-position
  // tables. Bytes are composed into words explicitly, so the result does
  // not depend on the host's endianness or on data alignment.
  while (n >= 16) {
    const std::uint32_t w0 = c ^ load_word(data);
    const std::uint32_t w1 = load_word(data + 4);
    const std::uint32_t w2 = load_word(data + 8);
    const std::uint32_t w3 = load_word(data + 12);
    c = kCrcTables[15][w0 & 0xFFu] ^ kCrcTables[14][(w0 >> 8) & 0xFFu] ^
        kCrcTables[13][(w0 >> 16) & 0xFFu] ^ kCrcTables[12][w0 >> 24] ^
        kCrcTables[11][w1 & 0xFFu] ^ kCrcTables[10][(w1 >> 8) & 0xFFu] ^
        kCrcTables[9][(w1 >> 16) & 0xFFu] ^ kCrcTables[8][w1 >> 24] ^
        kCrcTables[7][w2 & 0xFFu] ^ kCrcTables[6][(w2 >> 8) & 0xFFu] ^
        kCrcTables[5][(w2 >> 16) & 0xFFu] ^ kCrcTables[4][w2 >> 24] ^
        kCrcTables[3][w3 & 0xFFu] ^ kCrcTables[2][(w3 >> 8) & 0xFFu] ^
        kCrcTables[1][(w3 >> 16) & 0xFFu] ^ kCrcTables[0][w3 >> 24];
    data += 16;
    n -= 16;
  }
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrcTables[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void put_u8(std::vector<std::uint8_t>& buf, std::uint8_t v) {
  buf.push_back(v);
}

void put_u32(std::vector<std::uint8_t>& buf, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

namespace {

/// Overwrites 4 already-appended bytes at `pos`.
void patch_u32(std::vector<std::uint8_t>& buf, std::size_t pos,
               std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
  }
}

}  // namespace

std::size_t open_envelope(std::vector<std::uint8_t>& buf) {
  const std::size_t envelope = buf.size();
  buf.resize(envelope + 8);
  return envelope;
}

void close_envelope(std::vector<std::uint8_t>& buf, std::size_t envelope) {
  const std::size_t payload = envelope + 8;
  const auto len = static_cast<std::uint32_t>(buf.size() - payload);
  patch_u32(buf, envelope, len);
  patch_u32(buf, envelope + 4, crc32(buf.data() + payload, len));
}

void put_varint(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  while (v >= 0x80u) {
    buf.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  buf.push_back(static_cast<std::uint8_t>(v));
}

void put_string(std::vector<std::uint8_t>& buf, const std::string& s) {
  put_u32(buf, static_cast<std::uint32_t>(s.size()));
  buf.insert(buf.end(), s.begin(), s.end());
}

void put_value(std::vector<std::uint8_t>& buf, const Value& v) {
  if (const bool* b = std::get_if<bool>(&v)) {
    put_u8(buf, kTagBool);
    put_u8(buf, *b ? 1 : 0);
  } else if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) {
    put_u8(buf, kTagInt64);
    put_u64(buf, static_cast<std::uint64_t>(*i));
  } else if (const double* d = std::get_if<double>(&v)) {
    put_u8(buf, kTagDouble);
    put_u64(buf, std::bit_cast<std::uint64_t>(*d));
  } else {
    put_u8(buf, kTagString);
    put_string(buf, std::get<std::string>(v));
  }
}

bool ByteReader::take(std::size_t n) {
  if (!ok_ || end_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t ByteReader::u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint32_t ByteReader::u32() {
  if (!take(4)) return 0;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + static_cast<std::size_t>(i)]} << (8 * i);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::u64() {
  if (!take(8)) return 0;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + static_cast<std::size_t>(i)]} << (8 * i);
  pos_ += 8;
  return v;
}

std::uint64_t ByteReader::varint() {
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

std::string ByteReader::string() { return std::string(string_view()); }

std::string_view ByteReader::string_view() {
  const std::uint32_t n = u32();
  if (!take(n)) return {};
  const std::string_view s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Value ByteReader::value() {
  switch (u8()) {
    case kTagBool:   return Value{u8() != 0};
    case kTagInt64:  return Value{static_cast<std::int64_t>(u64())};
    case kTagDouble: return Value{std::bit_cast<double>(u64())};
    case kTagString: return Value{string()};
    default:
      ok_ = false;
      return Value{false};
  }
}

void ByteReader::skip_value() {
  switch (u8()) {
    case kTagBool:   (void)u8(); return;
    case kTagInt64:
    case kTagDouble: (void)u64(); return;
    case kTagString: (void)string_view(); return;
    default:         ok_ = false; return;
  }
}

}  // namespace arfs::storage::durable
