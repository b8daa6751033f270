#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "arfs/common/rng.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/storage/value.hpp"
#include "arfs/storage/volatile_storage.hpp"

namespace arfs::storage {
namespace {

TEST(Value, TypeNames) {
  EXPECT_EQ(type_name(Value{true}), "bool");
  EXPECT_EQ(type_name(Value{std::int64_t{1}}), "int64");
  EXPECT_EQ(type_name(Value{1.5}), "double");
  EXPECT_EQ(type_name(Value{std::string{"x"}}), "string");
}

TEST(Value, ToString) {
  EXPECT_EQ(to_string(Value{true}), "true");
  EXPECT_EQ(to_string(Value{std::int64_t{42}}), "42");
  EXPECT_EQ(to_string(Value{std::string{"hi"}}), "hi");
}

TEST(Value, GetAsMatchingType) {
  const Expected<std::int64_t> v = get_as<std::int64_t>(Value{std::int64_t{7}});
  ASSERT_TRUE(v);
  EXPECT_EQ(v.value(), 7);
}

TEST(Value, GetAsMismatchReportsError) {
  const Expected<bool> v = get_as<bool>(Value{1.5});
  ASSERT_FALSE(v);
  EXPECT_NE(v.error().find("double"), std::string::npos);
}

TEST(StableStorage, WriteInvisibleUntilCommit) {
  StableStorage s;
  s.write("k", std::int64_t{1});
  EXPECT_FALSE(s.read("k"));  // not yet committed
  s.commit(0);
  ASSERT_TRUE(s.read("k"));
  EXPECT_EQ(std::get<std::int64_t>(s.read("k").value()), 1);
}

TEST(StableStorage, CommitIsAtomicOverAllStagedKeys) {
  StableStorage s;
  s.write("a", std::int64_t{1});
  s.write("b", std::int64_t{2});
  EXPECT_EQ(s.commit(0), 2u);
  EXPECT_TRUE(s.contains("a"));
  EXPECT_TRUE(s.contains("b"));
}

TEST(StableStorage, DropPendingModelsFailStop) {
  StableStorage s;
  s.write("survivor", std::int64_t{1});
  s.commit(0);
  s.write("survivor", std::int64_t{99});  // uncommitted update
  s.write("new_key", std::int64_t{5});    // uncommitted insert
  s.drop_pending();
  s.commit(1);
  // The fail-stop contract: the observable state is exactly the last commit.
  EXPECT_EQ(std::get<std::int64_t>(s.read("survivor").value()), 1);
  EXPECT_FALSE(s.contains("new_key"));
}

TEST(StableStorage, ReadOwnSeesStagedValue) {
  StableStorage s;
  s.write("k", std::int64_t{1});
  s.commit(0);
  s.write("k", std::int64_t{2});
  EXPECT_EQ(std::get<std::int64_t>(s.read("k").value()), 1);
  EXPECT_EQ(std::get<std::int64_t>(s.read_own("k").value()), 2);
}

TEST(StableStorage, ReadAsChecksType) {
  StableStorage s;
  s.write("k", 1.5);
  s.commit(0);
  EXPECT_TRUE(s.read_as<double>("k"));
  EXPECT_FALSE(s.read_as<bool>("k"));
}

TEST(StableStorage, LastCommitCycleTracksUpdates) {
  StableStorage s;
  s.write("k", std::int64_t{1});
  s.commit(3);
  EXPECT_EQ(s.last_commit_cycle("k"), Cycle{3});
  s.write("k", std::int64_t{2});
  s.commit(7);
  EXPECT_EQ(s.last_commit_cycle("k"), Cycle{7});
  EXPECT_FALSE(s.last_commit_cycle("missing").has_value());
}

TEST(StableStorage, KeysSorted) {
  StableStorage s;
  s.write("b", std::int64_t{1});
  s.write("a", std::int64_t{1});
  s.commit(0);
  EXPECT_EQ(s.keys(), (std::vector<std::string>{"a", "b"}));
}

TEST(StableStorage, HistoryRecordsCommits) {
  StableStorage s;
  s.enable_history(true);
  s.write("k", std::int64_t{1});
  s.commit(0);
  s.write("k", std::int64_t{2});
  s.commit(1);
  ASSERT_EQ(s.history().size(), 2u);
  EXPECT_EQ(s.history()[1].cycle, 1u);
  EXPECT_EQ(std::get<std::int64_t>(s.history()[1].value), 2);
}

TEST(StableStorage, CommitEpochsCount) {
  StableStorage s;
  s.commit(0);
  s.commit(1);
  EXPECT_EQ(s.commit_epochs(), 2u);
}

TEST(StableStorage, DropPendingRecordsNothingInHistory) {
  // drop_pending models the fail-stop halt; the dropped writes were never
  // committed, so the post-mortem history must not show them either.
  StableStorage s;
  s.enable_history(true);
  s.write("k", std::int64_t{1});
  s.commit(0);
  s.write("k", std::int64_t{2});
  s.write("ghost", std::int64_t{3});
  s.drop_pending();
  s.commit(1);  // empty commit: bumps the epoch, records nothing
  ASSERT_EQ(s.history().size(), 1u);
  EXPECT_EQ(std::get<std::int64_t>(s.history()[0].value), 1);
  EXPECT_EQ(s.commit_epochs(), 2u);
  // And history resumes cleanly after the failure.
  s.write("k", std::int64_t{4});
  s.commit(2);
  ASSERT_EQ(s.history().size(), 2u);
  EXPECT_EQ(s.history()[1].cycle, 2u);
}

TEST(StableStorage, PendingExposesTheSortedStagedBatch) {
  StableStorage s;
  s.write("b", std::int64_t{2});
  s.write("a", std::int64_t{1});
  s.write("b", std::int64_t{22});  // overwrite stays one entry
  ASSERT_EQ(s.pending().size(), 2u);
  EXPECT_EQ(s.key_name(s.pending()[0]), "a");
  EXPECT_EQ(std::get<std::int64_t>(s.pending_value(s.pending()[1])), 22);
  s.drop_pending();
  EXPECT_TRUE(s.pending().empty());
}

TEST(StableStorage, RestoreRebuildsCommittedEntriesExactly) {
  StableStorage original;
  original.write("x", std::int64_t{5});
  original.commit(3);
  original.write("y", 2.5);
  original.commit(8);

  StableStorage rebuilt;
  for (const auto& [key, value, committed_at] : original.committed_entries()) {
    rebuilt.restore(key, value, committed_at);
  }
  rebuilt.set_commit_epochs(original.commit_epochs());
  EXPECT_EQ(rebuilt.fingerprint(), original.fingerprint());
  EXPECT_EQ(rebuilt.last_commit_cycle("x"), Cycle{3});
  EXPECT_EQ(rebuilt.last_commit_cycle("y"), Cycle{8});
}

TEST(StableStorage, FingerprintSeesValuesTypesAndCommitCycles) {
  const auto make = [](std::int64_t v, Cycle cycle) {
    StableStorage s;
    s.write("k", v);
    s.commit(cycle);
    return s.fingerprint();
  };
  EXPECT_EQ(make(1, 0), make(1, 0));
  EXPECT_NE(make(1, 0), make(2, 0));  // value
  EXPECT_NE(make(1, 0), make(1, 9));  // commit cycle
  StableStorage as_double;
  as_double.write("k", 1.0);
  as_double.commit(0);
  EXPECT_NE(make(1, 0), as_double.fingerprint());  // type
}

/// A store holding one committed entry, "k" = `v` committed at `cycle`.
StableStorage one_entry(const Value& v, Cycle cycle = 0) {
  StableStorage s;
  s.restore("k", v, cycle);
  return s;
}

/// Two stores that differ only in the one thing each case names: never the
/// same committed entries, and never the same fingerprint.
TEST(StableStorage, SameCommittedSeesValueBitsAlternativesAndCycles) {
  const double nan_a = std::bit_cast<double>(0x7FF8000000000001ULL);
  const double nan_b = std::bit_cast<double>(0x7FF8000000000002ULL);
  const std::pair<Value, Value> differing[] = {
      {Value{0.0}, Value{-0.0}},                 // == as numbers
      {Value{nan_a}, Value{nan_b}},              // NaN payloads
      {Value{std::int64_t{1}}, Value{1.0}},      // alternative
      {Value{true}, Value{std::int64_t{1}}},     // alternative
      {Value{std::string("1")}, Value{std::int64_t{1}}}};
  for (const auto& [a, b] : differing) {
    SCOPED_TRACE(to_string(a) + " vs " + to_string(b));
    EXPECT_FALSE(one_entry(a).same_committed(one_entry(b)));
    EXPECT_FALSE(one_entry(b).same_committed(one_entry(a)));
    EXPECT_NE(one_entry(a).fingerprint(), one_entry(b).fingerprint());
  }
  // The commit cycle.
  const Value one{std::int64_t{1}};
  EXPECT_FALSE(one_entry(one, 3).same_committed(one_entry(one, 4)));
  EXPECT_NE(one_entry(one, 3).fingerprint(), one_entry(one, 4).fingerprint());
  // A NaN is the same as itself bit for bit, though it never compares
  // equal to itself as a number.
  EXPECT_TRUE(one_entry(Value{nan_a}).same_committed(one_entry(Value{nan_a})));
  EXPECT_TRUE(one_entry(Value{-0.0}).same_committed(one_entry(Value{-0.0})));
}

TEST(StableStorage, SameCommittedIgnoresInterningOrderAndStagedWrites) {
  // The same committed entries, interned in opposite orders, one store
  // with a staged write and a name that was never committed.
  StableStorage a;
  a.write("b", std::int64_t{2});
  a.write("a", 1.5);
  a.commit(7);
  StableStorage b;
  b.write("c", true);
  b.drop_pending();
  b.write("a", 1.5);
  b.write("b", std::int64_t{2});
  b.commit(7);
  b.write("a", 9.0);
  EXPECT_TRUE(a.same_committed(b));
  EXPECT_TRUE(b.same_committed(a));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  // An entry more, or a name fewer, is not the same.
  b.commit(8);
  EXPECT_FALSE(a.same_committed(b));
  StableStorage c;
  c.write("a", 1.5);
  c.commit(7);
  EXPECT_FALSE(a.same_committed(c));
  EXPECT_FALSE(c.same_committed(a));
}

// Random pairs of stores over a few names, values and commit cycles, the
// second one a copy of the first in a random interning order that may
// change one entry: the two are the same committed entries exactly when
// their fingerprints agree (FNV-1a collisions aside), so "the same" always
// implies the same fingerprint.
TEST(StableStorage, SameCommittedHoldsExactlyWhenFingerprintsAgree) {
  const std::array<std::string, 3> names = {"a", "b", "k"};
  const std::array<Value, 9> values = {
      Value{std::int64_t{0}},
      Value{std::int64_t{1}},
      Value{0.0},
      Value{-0.0},
      Value{1.0},
      Value{std::bit_cast<double>(0x7FF8000000000001ULL)},
      Value{std::bit_cast<double>(0x7FF8000000000002ULL)},
      Value{true},
      Value{std::string("1")}};
  Rng rng(26);
  std::size_t same = 0;
  std::size_t differ = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::vector<std::tuple<std::string, Value, Cycle>> entries;
    for (const std::string& name : names) {
      if (rng.chance(0.8)) {
        entries.emplace_back(name, values[rng.uniform(0, values.size() - 1)],
                             rng.uniform(0, 1));
      }
    }
    std::vector<std::tuple<std::string, Value, Cycle>> other = entries;
    if (!other.empty() && rng.chance(0.6)) {
      auto& [name, value, cycle] = other[rng.uniform(0, other.size() - 1)];
      switch (rng.uniform(0, 2)) {
        case 0: value = values[rng.uniform(0, values.size() - 1)]; break;
        case 1: cycle = rng.uniform(0, 1); break;
        default: name = "z"; break;
      }
    }
    if (rng.chance(0.5)) std::reverse(other.begin(), other.end());
    StableStorage a;
    for (const auto& [name, value, cycle] : entries) {
      a.restore(name, value, cycle);
    }
    StableStorage b;
    for (const auto& [name, value, cycle] : other) {
      b.restore(name, value, cycle);
    }
    const bool equal = a.same_committed(b);
    ASSERT_EQ(equal, b.same_committed(a)) << "trial " << trial;
    ASSERT_EQ(equal, a.fingerprint() == b.fingerprint()) << "trial " << trial;
    ++(equal ? same : differ);
  }
  EXPECT_GT(same, 1000u);
  EXPECT_GT(differ, 1000u);
}

TEST(StableStorage, MissingKeyIsError) {
  const StableStorage s;
  const auto v = s.read("missing");
  ASSERT_FALSE(v);
  EXPECT_NE(v.error().find("missing"), std::string::npos);
}

// --- the write path against a reference model ---

/// What a StableStorage must hold after a script, kept in plain maps by
/// name: committed (value, cycle) pairs, staged values and the history.
struct StoreModel {
  std::map<std::string, std::pair<Value, Cycle>> committed;
  std::map<std::string, Value> staged;
  std::vector<CommitRecord> history;
  std::uint64_t epochs = 0;

  void commit(Cycle cycle) {
    for (const auto& [name, value] : staged) {
      committed[name] = {value, cycle};
      history.push_back(CommitRecord{cycle, name, value});
    }
    staged.clear();
    ++epochs;
  }
};

/// Key names. The scripts write them in random order, so a store interns
/// them in an order other than name order and ids differ from ranks.
const std::vector<std::string> kModelNames = {
    "a0", "a1", "b", "b/x", "b/y", "c", "m", "scram/a10/status",
    "scram/a2/status", "z"};

/// Short strings live in the std::string itself, long ones on the heap.
const char* const kModelTexts[] = {"", "halt", "initialize",
                                   "a string that is far too long for SSO"};

/// The model's committed state rebuilt through restore(), which shares
/// nothing with write() and commit(): the fingerprint a matching store has.
std::uint64_t model_fingerprint(const StoreModel& m) {
  StableStorage ref;
  for (const auto& [name, entry] : m.committed) {
    ref.restore(name, entry.first, entry.second);
  }
  return ref.fingerprint();
}

void expect_matches_model(const StableStorage& s, const StoreModel& m) {
  ASSERT_EQ(s.committed_count(), m.committed.size());
  for (const std::string& name : kModelNames) {
    const auto it = m.committed.find(name);
    if (it == m.committed.end()) {
      EXPECT_FALSE(s.contains(name)) << name;
    } else {
      const Expected<Value> got = s.read(name);
      ASSERT_TRUE(got) << name;
      // Value's == compares the alternative before the value.
      EXPECT_EQ(got.value(), it->second.first) << name;
      EXPECT_EQ(s.last_commit_cycle(name), it->second.second) << name;
    }
    const auto staged = m.staged.find(name);
    if (staged != m.staged.end()) {
      const Expected<Value> own = s.read_own(name);
      ASSERT_TRUE(own) << name;
      EXPECT_EQ(own.value(), staged->second) << name;
    }
  }
  ASSERT_EQ(s.pending().size(), m.staged.size());
  auto staged = m.staged.begin();
  for (const KeyId id : s.pending()) {  // name order
    EXPECT_EQ(s.key_name(id), staged->first);
    EXPECT_EQ(s.pending_value(id), staged->second) << staged->first;
    ++staged;
  }
  ASSERT_EQ(s.history().size(), m.history.size());
  for (std::size_t i = 0; i < m.history.size(); ++i) {
    EXPECT_EQ(s.history()[i].cycle, m.history[i].cycle) << i;
    EXPECT_EQ(s.history()[i].key, m.history[i].key) << i;
    EXPECT_EQ(s.history()[i].value, m.history[i].value) << i;
  }
  EXPECT_EQ(s.commit_epochs(), m.epochs);
  EXPECT_EQ(s.fingerprint(), model_fingerprint(m));
}

/// Stages a random value of a random alternative under `name`, passed as
/// one of the argument types callers use, and returns what the model
/// expects the store to stage: the alternative a Value built from that
/// argument holds.
Value write_random(StableStorage& s, const std::string& name, Rng& rng) {
  switch (rng.uniform(0, 7)) {
    case 0: {
      const bool b = rng.chance(0.5);
      s.write(name, b);
      return Value{b};
    }
    case 1: {
      const auto i = static_cast<std::int64_t>(rng.next_u64());
      s.write(name, i);
      return Value{i};
    }
    case 2: {
      const double d = rng.uniform_real(-1e6, 1e6);
      s.write(name, d);
      return Value{d};
    }
    case 3: {
      const char* const text = kModelTexts[rng.uniform(0, 3)];
      s.write(name, text);
      return Value{std::string(text)};
    }
    case 4: {
      std::string text = kModelTexts[rng.uniform(0, 3)];
      const Value expected{text};
      s.write(name, std::move(text));
      return expected;
    }
    case 5: {  // an lvalue Value, by KeyId
      const Value v{rng.chance(0.5)};
      s.write(s.intern(name), v);
      return v;
    }
    case 6: {  // a bool and a double by KeyId
      const KeyId id = s.intern(name);
      if (rng.chance(0.5)) {
        s.write(id, true);
        return Value{true};
      }
      s.write(id, 0.5);
      return Value{0.5};
    }
    default: {
      s.write(name, Value{std::string(kModelTexts[3])});
      return Value{std::string(kModelTexts[3])};
    }
  }
}

// Random scripts of writes (every alternative, in name order, reverse
// order and random order), commits, fail-stop drops and mid-frame copy
// assignments into a table that is a prefix of the source's and into a
// foreign one, checked against the model after every step.
TEST(StableStorageModel, RandomScriptsMatchAMapModel) {
  std::size_t type_changes_in_frame = 0;
  std::size_t type_changes_across_frames = 0;
  std::size_t copies = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // stores[0] starts empty; stores[1] starts empty, so its table is a
    // prefix of whatever it is assigned from; stores[2] interned every name
    // in reverse order and holds state of its own, so assigning into it
    // goes through the foreign-table path.
    std::array<StableStorage, 3> stores;
    stores[0].enable_history(true);
    for (auto it = kModelNames.rbegin(); it != kModelNames.rend(); ++it) {
      stores[2].write(*it, std::int64_t{-1});
    }
    stores[2].commit(0);
    std::size_t active = 0;
    StoreModel model;
    Cycle cycle = 1;
    for (int step = 0; step < 250; ++step) {
      StableStorage& s = stores[active];
      const std::uint64_t op = rng.uniform(0, 99);
      if (op < 45) {
        std::vector<std::string> batch;
        for (const std::string& name : kModelNames) {
          if (rng.chance(0.4)) batch.push_back(name);
        }
        switch (rng.uniform(0, 2)) {
          case 0: break;  // name order: every write appends
          case 1: std::reverse(batch.begin(), batch.end()); break;
          default:
            for (std::size_t i = batch.size(); i > 1; --i) {
              std::swap(batch[i - 1], batch[rng.uniform(0, i - 1)]);
            }
        }
        for (const std::string& name : batch) {
          const Value v = write_random(s, name, rng);
          const auto staged = model.staged.find(name);
          if (staged != model.staged.end() &&
              staged->second.index() != v.index()) {
            ++type_changes_in_frame;
          }
          model.staged[name] = v;
        }
      } else if (op < 70) {
        for (const auto& [name, v] : model.staged) {
          const auto it = model.committed.find(name);
          if (it != model.committed.end() &&
              it->second.first.index() != v.index()) {
            ++type_changes_across_frames;
          }
        }
        EXPECT_EQ(s.commit(cycle), model.staged.size());
        model.commit(cycle++);
      } else if (op < 80) {
        s.drop_pending();
        model.staged.clear();
      } else {
        const std::size_t target = (active + 1 + rng.uniform(0, 1)) % 3;
        stores[target] = s;
        ++copies;
        expect_matches_model(stores[target], model);
        if (rng.chance(0.5)) active = target;
      }
      expect_matches_model(stores[active], model);
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(type_changes_in_frame, 0u);
  EXPECT_GT(type_changes_across_frames, 0u);
  EXPECT_GT(copies, 0u);
}

TEST(VolatileStorage, WriteAndRead) {
  VolatileStorage v;
  v.write("k", std::string{"hello"});
  ASSERT_TRUE(v.read("k"));
  EXPECT_EQ(std::get<std::string>(v.read("k").value()), "hello");
  EXPECT_TRUE(v.read_as<std::string>("k"));
  EXPECT_FALSE(v.read_as<double>("k"));
}

TEST(VolatileStorage, EraseAllModelsFailStop) {
  VolatileStorage v;
  v.write("a", std::int64_t{1});
  v.write("b", std::int64_t{2});
  EXPECT_EQ(v.size(), 2u);
  v.erase_all();
  EXPECT_EQ(v.size(), 0u);
  EXPECT_FALSE(v.contains("a"));
  EXPECT_EQ(v.erase_count(), 1u);
}

}  // namespace
}  // namespace arfs::storage
