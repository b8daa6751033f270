// FNV-1a, the one hash behind every state digest and store fingerprint.
//
// A 64-bit word is hashed as its eight little-endian bytes. fnv_mix skips
// the work of high zero bytes: XOR with 0 is the identity, so each of them
// only multiplies by the prime. The step mixes the significant bytes and
// then multiplies once by P^k for the k zero bytes left, which gives the
// same value as the plain 8-step loop for every word.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace arfs {

inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

namespace detail {
/// kFnvPrimePowers[k] = kFnvPrime^k (mod 2^64), k = 0..8.
inline constexpr std::array<std::uint64_t, 9> kFnvPrimePowers = [] {
  std::array<std::uint64_t, 9> powers{};
  powers[0] = 1;
  for (std::size_t k = 1; k < powers.size(); ++k) {
    powers[k] = powers[k - 1] * kFnvPrime;
  }
  return powers;
}();
}  // namespace detail

/// Folds the eight little-endian bytes of `v` into `h`.
[[nodiscard]] constexpr std::uint64_t fnv_mix(std::uint64_t h,
                                              std::uint64_t v) {
  const int significant = (static_cast<int>(std::bit_width(v)) + 7) / 8;
  for (int i = 0; i < significant; ++i) {
    h = (h ^ (v & 0xFFu)) * kFnvPrime;
    v >>= 8;
  }
  return h * detail::kFnvPrimePowers[8 - significant];
}

/// Folds every byte of `bytes` into `h`, in order.
[[nodiscard]] constexpr std::uint64_t fnv_mix_bytes(
    std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t b : bytes) h = (h ^ b) * kFnvPrime;
  return h;
}

[[nodiscard]] constexpr std::uint64_t fnv_mix_bytes(std::uint64_t h,
                                                    std::string_view s) {
  for (const char c : s) h = (h ^ static_cast<std::uint8_t>(c)) * kFnvPrime;
  return h;
}

}  // namespace arfs
