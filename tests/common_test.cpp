#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/common/expected.hpp"
#include "arfs/common/hash.hpp"
#include "arfs/common/ids.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/common/types.hpp"

namespace arfs {
namespace {

TEST(Ids, DistinctTypesDoNotMix) {
  const AppId app{3};
  const ConfigId config{3};
  EXPECT_EQ(app.value(), config.value());
  // (AppId == ConfigId) does not compile — the whole point of strong ids.
  static_assert(!std::is_convertible_v<AppId, ConfigId>);
}

TEST(Ids, OrderingAndEquality) {
  EXPECT_LT(AppId{1}, AppId{2});
  EXPECT_EQ(AppId{7}, AppId{7});
  EXPECT_NE(AppId{7}, AppId{8});
}

TEST(Ids, HashableInUnorderedContainers) {
  std::unordered_set<AppId> set;
  set.insert(AppId{1});
  set.insert(AppId{2});
  set.insert(AppId{1});
  EXPECT_EQ(set.size(), 2u);
}

TEST(Ids, UsableAsMapKeys) {
  std::set<ConfigId> set{ConfigId{3}, ConfigId{1}, ConfigId{2}};
  EXPECT_EQ(set.begin()->value(), 1u);
}

/// The plain FNV-1a word step, written out: eight byte steps, high zero
/// bytes included. fnv_mix must equal it for every word.
std::uint64_t reference_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}

TEST(Hash, WordStepMatchesThePlainEightByteLoop) {
  std::vector<std::uint64_t> words = {0, 1, 0xFF, 0x100,
                                      std::numeric_limits<std::uint64_t>::max()};
  for (int k = 0; k < 64; ++k) {
    words.push_back((std::uint64_t{1} << k) - 1);
    words.push_back(std::uint64_t{1} << k);
  }
  // Seeded random words: full width, and shifted down so every significant
  // byte count is drawn.
  Rng rng(20261017);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t w = rng.next_u64();
    words.push_back(i % 2 == 0 ? w : w >> (i % 64));
  }

  std::size_t mismatches = 0;
  std::uint64_t chained = kFnvBasis;
  std::uint64_t chained_reference = kFnvBasis;
  for (const std::uint64_t w : words) {
    if (fnv_mix(kFnvBasis, w) != reference_mix(kFnvBasis, w)) ++mismatches;
    chained = fnv_mix(chained, w);
    chained_reference = reference_mix(chained_reference, w);
    if (chained != chained_reference) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << "over " << words.size() << " words";
}

TEST(Hash, ByteStepFoldsEveryByteInOrder) {
  using namespace std::string_view_literals;
  const std::string_view text = "a12/initialized_for\0\xff"sv;  // 21 bytes
  std::uint64_t reference = kFnvBasis;
  for (const char c : text) {
    reference ^= static_cast<std::uint8_t>(c);
    reference *= 0x100000001B3ULL;
  }
  ASSERT_EQ(text.size(), 21u);
  EXPECT_EQ(fnv_mix_bytes(kFnvBasis, text), reference);
  const std::vector<std::uint8_t> bytes(text.begin(), text.end());
  EXPECT_EQ(fnv_mix_bytes(kFnvBasis, bytes), reference);
  EXPECT_EQ(fnv_mix_bytes(kFnvBasis, std::string_view{}), kFnvBasis);
}

TEST(Check, RequireThrowsOnViolation) {
  EXPECT_NO_THROW(require(true, "fine"));
  EXPECT_THROW(require(false, "broken"), ContractViolation);
}

TEST(Check, EnsureThrowsOnViolation) {
  EXPECT_NO_THROW(ensure(true, "fine"));
  EXPECT_THROW(ensure(false, "broken"), ContractViolation);
}

TEST(Check, MessageIncludesLocationAndText) {
  try {
    require(false, "my-contract");
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("my-contract"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

TEST(Expected, HoldsValue) {
  const Expected<int> e = 42;
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e.value(), 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(Expected, HoldsError) {
  const Expected<int> e = unexpected("nope");
  ASSERT_FALSE(e);
  EXPECT_EQ(e.error(), "nope");
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(Expected, ValueOnErrorThrows) {
  const Expected<int> e = unexpected("nope");
  EXPECT_THROW((void)e.value(), ContractViolation);
}

TEST(Types, FramesToTime) {
  EXPECT_EQ(frames_to_time(0, 10'000), 0);
  EXPECT_EQ(frames_to_time(5, 10'000), 50'000);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(Rng, UniformSingletonRange) {
  Rng rng(99);
  EXPECT_EQ(rng.uniform(5, 5), 5u);
}

TEST(Rng, UniformRejectsBackwardRange) {
  Rng rng(99);
  EXPECT_THROW((void)rng.uniform(5, 4), ContractViolation);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, GaussianRoughMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.gaussian(2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(42);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 5);
}

}  // namespace
}  // namespace arfs
