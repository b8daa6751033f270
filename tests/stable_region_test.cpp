#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "arfs/common/rng.hpp"
#include "arfs/core/stable_region.hpp"

namespace arfs::core {
namespace {

TEST(StableRegion, PrefixesKeys) {
  storage::StableStorage backing;
  StableRegion region(backing, "a1/");
  region.write("altitude", 5000.0);
  backing.commit(0);
  EXPECT_TRUE(backing.contains("a1/altitude"));
  EXPECT_FALSE(backing.contains("altitude"));
  ASSERT_TRUE(region.read("altitude"));
  EXPECT_DOUBLE_EQ(region.read_as<double>("altitude").value(), 5000.0);
}

TEST(StableRegion, TwoRegionsShareBackingWithoutCollision) {
  storage::StableStorage backing;
  StableRegion a(backing, "a1/");
  StableRegion b(backing, "a2/");
  a.write("x", std::int64_t{1});
  b.write("x", std::int64_t{2});
  backing.commit(0);
  EXPECT_EQ(a.read_as<std::int64_t>("x").value(), 1);
  EXPECT_EQ(b.read_as<std::int64_t>("x").value(), 2);
}

TEST(StableRegion, ReadOwnSeesStagedWrites) {
  storage::StableStorage backing;
  StableRegion region(backing, "a1/");
  region.write("k", std::int64_t{1});
  backing.commit(0);
  region.write("k", std::int64_t{2});
  EXPECT_EQ(region.read_as<std::int64_t>("k").value(), 1);
  EXPECT_EQ(region.read_own_as<std::int64_t>("k").value(), 2);
}

TEST(StableRegion, RelocateCopiesOnlyThePrefix) {
  storage::StableStorage source;
  source.write("a1/x", std::int64_t{1});
  source.write("a1/y", std::int64_t{2});
  source.write("a2/x", std::int64_t{3});
  source.commit(0);

  storage::StableStorage target;
  const std::size_t copied = StableRegion::relocate(source, target, "a1/");
  EXPECT_EQ(copied, 2u);
  target.commit(1);
  EXPECT_TRUE(target.contains("a1/x"));
  EXPECT_TRUE(target.contains("a1/y"));
  EXPECT_FALSE(target.contains("a2/x"));
}

TEST(StableRegion, RelocateCopiesCommittedValuesOnly) {
  storage::StableStorage source;
  source.write("a1/x", std::int64_t{1});
  source.commit(0);
  source.write("a1/x", std::int64_t{99});  // staged, never committed

  storage::StableStorage target;
  StableRegion::relocate(source, target, "a1/");
  target.commit(0);
  EXPECT_EQ(std::get<std::int64_t>(target.read("a1/x").value()), 1);
}

TEST(StableRegion, RelocateFromFailedProcessorsView) {
  // The exact recovery pattern: the source dropped pending writes at its
  // fail-stop; the relocated region carries the last committed frame.
  storage::StableStorage source;
  source.write("a1/state", std::int64_t{7});
  source.commit(3);
  source.write("a1/state", std::int64_t{8});
  source.drop_pending();  // fail-stop

  storage::StableStorage target;
  StableRegion::relocate(source, target, "a1/");
  target.commit(4);
  EXPECT_EQ(std::get<std::int64_t>(target.read("a1/state").value()), 7);
}

/// The name-based copy relocate() once made: list the committed keys, read
/// each back by name, stage it on `target`.
std::size_t relocate_by_name(const storage::StableStorage& source,
                             storage::StableStorage& target,
                             const std::string& prefix) {
  std::size_t copied = 0;
  for (const std::string& key : source.keys()) {
    if (key.rfind(prefix, 0) != 0) continue;
    const Expected<storage::Value> value = source.read(key);
    if (!value) continue;
    target.write(key, value.value());
    ++copied;
  }
  return copied;
}

TEST(StableRegion, RelocateCopiesWhatANameBasedCopyCopies) {
  Rng rng(31);
  const char* const regions[] = {"a1/", "a10/", "a2/", ""};
  for (int round = 0; round < 30; ++round) {
    storage::StableStorage source;
    // Names interned by an earlier life of the store, then cleared: they
    // stay in its name table but are not committed.
    source.write("a1/gone", std::int64_t{1});
    source.commit(1);
    source.reset_committed();
    const std::uint64_t keys = rng.uniform(0, 20);
    for (std::uint64_t k = 0; k < keys; ++k) {
      const std::string key = std::string(regions[rng.uniform(0, 3)]) +
                              "k" + std::to_string(rng.uniform(0, 7));
      switch (rng.uniform(0, 3)) {
        case 0:
          source.write(key, rng.uniform(0, 1) == 1);
          break;
        case 1:
          source.write(key, static_cast<std::int64_t>(rng.next_u64()));
          break;
        case 2:
          source.write(key, rng.uniform_real(-1.0, 1.0));
          break;
        default:
          source.write(key, std::string(rng.uniform(0, 64), 's'));
          break;
      }
      if (rng.uniform(0, 1) == 0) source.commit(2 + k);
    }
    source.commit(100);
    source.write("a1/staged", std::int64_t{5});  // never committed

    for (const std::string prefix : {"a1/", "a10/", "a2/", "zz/", ""}) {
      storage::StableStorage walked;
      storage::StableStorage named;
      // The targets hold a region of their own, which the copy overwrites
      // where the names meet.
      for (storage::StableStorage* target : {&walked, &named}) {
        target->write("a1/k0", std::int64_t{-1});
        target->write("b/own", std::int64_t{-2});
        target->commit(50);
      }
      EXPECT_EQ(StableRegion::relocate(source, walked, prefix),
                relocate_by_name(source, named, prefix))
          << "round " << round << ", prefix '" << prefix << "'";
      EXPECT_EQ(walked.pending(), named.pending());
      walked.commit(101);
      named.commit(101);
      EXPECT_TRUE(walked.same_committed(named))
          << "round " << round << ", prefix '" << prefix << "'";
      EXPECT_EQ(walked.fingerprint(), named.fingerprint());
    }
  }
}

TEST(StableRegion, MissingKeyErrors) {
  storage::StableStorage backing;
  const StableRegion region(backing, "a1/");
  EXPECT_FALSE(region.read("nope"));
  EXPECT_FALSE(region.read_as<bool>("nope"));
  EXPECT_FALSE(region.contains("nope"));
}

TEST(StableRegion, MoreKeysThanTheMemoHolds) {
  // Keys past the memo's capacity fall back to a (prefix, key) lookup on
  // every access; every key must still land under its own name.
  storage::StableStorage backing;
  StableRegion region(backing, "a1/");
  constexpr std::size_t kKeys = 3 * StableRegion::kMemoCapacity;
  for (std::int64_t frame = 0; frame < 3; ++frame) {
    for (std::size_t k = 0; k < kKeys; ++k) {
      region.write("k" + std::to_string(k),
                   static_cast<std::int64_t>(100 * frame) +
                       static_cast<std::int64_t>(k));
    }
    backing.commit(static_cast<Cycle>(frame));
    for (std::size_t k = 0; k < kKeys; ++k) {
      const std::string key = "k" + std::to_string(k);
      const std::int64_t want =
          static_cast<std::int64_t>(100 * frame) + static_cast<std::int64_t>(k);
      EXPECT_EQ(region.read_as<std::int64_t>(key).value(), want) << key;
      EXPECT_EQ(backing.read_as<std::int64_t>("a1/" + key).value(), want);
    }
  }
  EXPECT_EQ(backing.name_count(), kKeys);
  EXPECT_EQ(backing.committed_count(), kKeys);
}

TEST(StableRegion, ReadOfAMissingKeyInternsNothing) {
  storage::StableStorage backing;
  StableRegion region(backing, "a1/");
  region.write("present", std::int64_t{1});
  backing.commit(0);
  const std::size_t names = backing.name_count();
  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(region.read("missing"));
    EXPECT_FALSE(region.read_own("missing"));
    EXPECT_FALSE(region.read_as<std::int64_t>("missing"));
    EXPECT_FALSE(region.contains("missing"));
  }
  EXPECT_EQ(backing.name_count(), names);
  EXPECT_FALSE(backing.find_key("a1/missing").has_value());
  // The store's own error, naming the full key.
  const Expected<storage::Value> missing = region.read("missing");
  ASSERT_FALSE(missing);
  EXPECT_NE(missing.error().find("a1/missing"), std::string::npos);
  // A key that exists only on a prefix boundary is not a match either.
  region.write("presentx", std::int64_t{2});
  backing.commit(1);
  EXPECT_EQ(region.read_as<std::int64_t>("present").value(), 1);
  EXPECT_EQ(region.read_as<std::int64_t>("presentx").value(), 2);
}

TEST(StableRegion, RebindingToAnotherStoreForgetsItsKeys) {
  // The id of "a1/x" on `first` names "a2/x" on `second`, another app's key
  // with the same name past the prefix: an id remembered on one store must
  // never be used on the other.
  storage::StableStorage first;
  storage::StableStorage second;
  second.write("a2/x", std::int64_t{0});
  second.commit(0);
  StableRegion region("a1/");
  region.bind(first);
  region.write("x", std::int64_t{1});
  first.commit(0);
  ASSERT_EQ(first.find_key("a1/x"), second.find_key("a2/x"));
  region.bind(second);
  region.write("x", std::int64_t{2});
  second.commit(1);
  EXPECT_EQ(first.read_as<std::int64_t>("a1/x").value(), 1);
  EXPECT_EQ(second.read_as<std::int64_t>("a1/x").value(), 2);
  EXPECT_EQ(second.read_as<std::int64_t>("a2/x").value(), 0);
  region.bind(first);
  region.write("x", std::int64_t{3});
  first.commit(2);
  EXPECT_EQ(first.read_as<std::int64_t>("a1/x").value(), 3);
  EXPECT_EQ(second.read_as<std::int64_t>("a1/x").value(), 2);
  EXPECT_EQ(region.read_as<std::int64_t>("x").value(), 3);
}

}  // namespace
}  // namespace arfs::core
