#include "arfs/storage/durable/wire.hpp"

#include <array>
#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define ARFS_CRC32_CLMUL 1
#include <immintrin.h>
#endif

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

#if ARFS_CRC32_CLMUL

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of polynomial 0xEDB88320. k1/k2 fold a 128-bit lane
// across 512 bits, k3/k4 across 128 bits, k5 folds 64 bits to 32, and the
// last pair is P(x) and the Barrett constant mu.
constexpr long long kK1 = 0x0154442bd4, kK2 = 0x01c6e41596;
constexpr long long kK3 = 0x01751997d0, kK4 = 0x00ccaa009e;
constexpr long long kK5 = 0x0163cd6124;
constexpr long long kPoly = 0x01db710641, kMu = 0x01f7011641;

__attribute__((target("pclmul,sse4.1"))) inline __m128i fold_lane(
    __m128i lane, __m128i next, __m128i k) {
  const __m128i lo = _mm_clmulepi64_si128(lane, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(lane, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

__attribute__((target("pclmul,sse4.1"))) inline __m128i load_lane(
    const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances the running (pre-inverted) CRC `c` over `n` bytes; n is a
/// positive multiple of 16. Four lanes fold in parallel while 64 bytes
/// remain, then one lane folds the rest, and the 128-bit remainder is
/// reduced to 32 bits.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(
    std::uint32_t c, const std::uint8_t* data, std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  __m128i x1 = _mm_xor_si128(load_lane(data),
                             _mm_cvtsi32_si128(static_cast<int>(c)));
  data += 16;
  n -= 16;
  if (n >= 48) {
    __m128i x2 = load_lane(data);
    __m128i x3 = load_lane(data + 16);
    __m128i x4 = load_lane(data + 32);
    data += 48;
    n -= 48;
    for (; n >= 64; data += 64, n -= 64) {
      x1 = fold_lane(x1, load_lane(data), k1k2);
      x2 = fold_lane(x2, load_lane(data + 16), k1k2);
      x3 = fold_lane(x3, load_lane(data + 32), k1k2);
      x4 = fold_lane(x4, load_lane(data + 48), k1k2);
    }
    x1 = fold_lane(x1, x2, k3k4);
    x1 = fold_lane(x1, x3, k3k4);
    x1 = fold_lane(x1, x4, k3k4);
  }
  for (; n >= 16; data += 16, n -= 16) {
    x1 = fold_lane(x1, load_lane(data), k3k4);
  }
  // 128 -> 64 bits.
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                     _mm_clmulepi64_si128(x1, k3k4, 0x10));
  // 64 -> 32 bits.
  x1 = _mm_xor_si128(
      _mm_srli_si128(x1, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32),
                           _mm_set_epi64x(0, kK5), 0x00));
  // Barrett reduction.
  const __m128i poly = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

bool detect_clmul() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
}

/// Chosen once, at static initialization. A crc32() call made before this
/// initializer runs reads false and takes the sliced path: same CRC.
const bool kHasClmul = detect_clmul();

#endif

}  // namespace

std::uint32_t crc32_bytewise(const std::uint8_t* data, std::size_t n) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = kCrcTables[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t n) {
#if ARFS_CRC32_CLMUL
  if (kHasClmul && n >= 16) {
    const std::size_t blocks = n & ~std::size_t{15};
    std::uint32_t c = crc32_fold(0xFFFFFFFFu, data, blocks);
    data += blocks;
    n -= blocks;
    // The tail (under 16 bytes): one slicing-by-8 step, one slicing-by-4
    // step, then at most 3 table bytes.
    if (n >= 8) {
      const std::uint32_t w0 = c ^ load_word(data);
      const std::uint32_t w1 = load_word(data + 4);
      c = kCrcTables[7][w0 & 0xFFu] ^ kCrcTables[6][(w0 >> 8) & 0xFFu] ^
          kCrcTables[5][(w0 >> 16) & 0xFFu] ^ kCrcTables[4][w0 >> 24] ^
          kCrcTables[3][w1 & 0xFFu] ^ kCrcTables[2][(w1 >> 8) & 0xFFu] ^
          kCrcTables[1][(w1 >> 16) & 0xFFu] ^ kCrcTables[0][w1 >> 24];
      data += 8;
      n -= 8;
    }
    if (n >= 4) {
      const std::uint32_t w = c ^ load_word(data);
      c = kCrcTables[3][w & 0xFFu] ^ kCrcTables[2][(w >> 8) & 0xFFu] ^
          kCrcTables[1][(w >> 16) & 0xFFu] ^ kCrcTables[0][w >> 24];
      data += 4;
      n -= 4;
    }
    for (std::size_t i = 0; i < n; ++i) {
      c = kCrcTables[0][(c ^ data[i]) & 0xFFu] ^ (c >> 8);
    }
    return c ^ 0xFFFFFFFFu;
  }
#endif
  return crc32_sliced(data, n);
}

std::uint32_t crc32_sliced(const std::uint8_t* data, std::size_t n) {
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
  std::uint8_t bytes[4];
  for (int i = 0; i < 4; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf.insert(buf.end(), bytes, bytes + 4);
}

void put_u64(std::vector<std::uint8_t>& buf, std::uint64_t v) {
  std::uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  buf.insert(buf.end(), bytes, bytes + 8);
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

std::size_t value_wire_bytes(const Value& v) {
  if (const std::string* s = std::get_if<std::string>(&v)) {
    return 1 + 4 + s->size();
  }
  return std::holds_alternative<bool>(v) ? 1 + 1 : 1 + 8;
}

std::string ByteReader::string() { return std::string(string_view()); }

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
