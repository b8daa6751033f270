#include <gtest/gtest.h>

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

TEST(StableStorage, MissingKeyIsError) {
  const StableStorage s;
  const auto v = s.read("missing");
  ASSERT_FALSE(v);
  EXPECT_NE(v.error().find("missing"), std::string::npos);
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
