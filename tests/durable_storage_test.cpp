// Durable stable storage: write-ahead journal, snapshots, and recovery.
//
// The scenarios mirror paper §5.1 at the device level: a halt preserves
// exactly the prefix of commits that reached the durable image — the "last
// successfully completed instruction" boundary — and recovery truncates a
// torn or corrupt tail rather than ever applying part of a commit. The
// spares a checkpoint is made of are checked here too: a spare processor's
// engine carries its source's options, so a refreshed spare driven like
// its source stays its copy, and an engine copy refuses file devices.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/common/hash.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/storage/durable/backend.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/durable/snapshot.hpp"
#include "arfs/storage/durable/wire.hpp"
#include "arfs/storage/stable_storage.hpp"

namespace arfs::storage::durable {
namespace {

// --- wire format ---

TEST(Wire, Crc32MatchesReferenceVector) {
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(crc32_bytewise(reinterpret_cast<const std::uint8_t*>(check.data()),
                           check.size()),
            0xCBF43926u);
}

TEST(Wire, Crc32SlicingEqualsBytewiseOnRandomInputs) {
  // Every length 0..4,096 at every alignment 0..15: the dispatched CRC
  // (the PCLMULQDQ fold where the CPU has it) and the slicing-by-16 loop
  // both equal the bytewise reference, across the fold's 64-byte and
  // 16-byte blocks and every tail length.
  constexpr std::size_t kMaxLength = 4096;
  constexpr std::size_t kAlignments = 16;
  Rng rng(77);
  std::vector<std::uint8_t> buffer(kMaxLength + kAlignments);
  for (std::uint8_t& b : buffer) b = static_cast<std::uint8_t>(rng.next_u64());
  std::size_t mismatches = 0;
  for (std::size_t align = 0; align < kAlignments; ++align) {
    for (std::size_t n = 0; n <= kMaxLength; ++n) {
      const std::uint8_t* data = buffer.data() + align;
      const std::uint32_t want = crc32_bytewise(data, n);
      const std::uint32_t dispatched = crc32(data, n);
      const std::uint32_t sliced = crc32_sliced(data, n);
      if (dispatched != want || sliced != want) {
        if (++mismatches <= 8) {
          ADD_FAILURE() << "length " << n << ", alignment " << align
                        << ": bytewise " << want << ", crc32 " << dispatched
                        << ", sliced " << sliced;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Wire, Crc32SlicingEqualsBytewiseOnAdversarialInputs) {
  // Patterns that catch table-composition mistakes: all-zero (exercises pure
  // shift behaviour), all-ones, single bit in every position of one block,
  // and a run long enough that a wrong per-position table compounds.
  std::vector<std::vector<std::uint8_t>> cases;
  cases.emplace_back(64, 0x00);
  cases.emplace_back(64, 0xFF);
  for (std::size_t bit = 0; bit < 64; ++bit) {
    std::vector<std::uint8_t> one(8, 0);
    one[bit / 8] = static_cast<std::uint8_t>(1u << (bit % 8));
    cases.push_back(std::move(one));
  }
  std::vector<std::uint8_t> ramp(4096);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::uint8_t>(i * 131 + 17);
  }
  cases.push_back(std::move(ramp));
  for (const auto& data : cases) {
    EXPECT_EQ(crc32(data.data(), data.size()),
              crc32_bytewise(data.data(), data.size()));
  }
}

TEST(Wire, VarintRoundTripsBoundaryValues) {
  const std::uint64_t values[] = {0,       1,          127,        128,
                                  16383,   16384,      0xFFFFFFFF, 1ULL << 56,
                                  ~0ULL};
  std::vector<std::uint8_t> buf;
  for (const std::uint64_t v : values) put_varint(buf, v);
  ByteReader reader(buf.data(), buf.size());
  for (const std::uint64_t v : values) EXPECT_EQ(reader.varint(), v);
  EXPECT_TRUE(reader.exhausted());
  // Small ids — the steady-state interned-key case — are one byte.
  std::vector<std::uint8_t> small;
  put_varint(small, 42);
  EXPECT_EQ(small.size(), 1u);
}

TEST(Wire, OverlongVarintLatchesNotOk) {
  std::vector<std::uint8_t> buf(11, 0x80);  // 11 continuation bytes
  ByteReader reader(buf.data(), buf.size());
  (void)reader.varint();
  EXPECT_FALSE(reader.ok());
}

TEST(Wire, ValueRoundTripsAllTypesBitExactly) {
  std::vector<std::uint8_t> buf;
  put_value(buf, Value{true});
  put_value(buf, Value{std::int64_t{-42}});
  put_value(buf, Value{0.1});  // not exactly representable: bit pattern test
  put_value(buf, Value{std::string{"hello"}});
  ByteReader reader(buf.data(), buf.size());
  EXPECT_EQ(std::get<bool>(reader.value()), true);
  EXPECT_EQ(std::get<std::int64_t>(reader.value()), -42);
  EXPECT_EQ(std::get<double>(reader.value()), 0.1);
  EXPECT_EQ(std::get<std::string>(reader.value()), "hello");
  EXPECT_TRUE(reader.exhausted());
}

TEST(Wire, ShortReadLatchesNotOk) {
  std::vector<std::uint8_t> buf;
  put_u32(buf, 99);
  ByteReader reader(buf.data(), buf.size());
  (void)reader.u64();  // asks for more than is there
  EXPECT_FALSE(reader.ok());
}

// --- memory backend crash semantics ---

TEST(MemoryBackend, UnsyncedBytesDieInCrash) {
  MemoryBackend device;
  const std::uint8_t data[4] = {1, 2, 3, 4};
  device.append(data, 4);
  ASSERT_TRUE(device.sync());
  device.append(data, 4);
  EXPECT_EQ(device.size(), 8u);
  EXPECT_EQ(device.synced_size(), 4u);
  device.crash();
  EXPECT_EQ(device.size(), 4u);
}

TEST(MemoryBackend, FailedSyncKeepsBytesBufferedForLaterSync) {
  MemoryBackend device;
  const std::uint8_t data[2] = {7, 8};
  device.append(data, 2);
  device.fail_next_sync();
  EXPECT_FALSE(device.sync());
  EXPECT_EQ(device.synced_size(), 0u);
  // A later sync still lands the bytes — only a crash in between loses them.
  EXPECT_TRUE(device.sync());
  EXPECT_EQ(device.synced_size(), 2u);
}

TEST(MemoryBackend, ArmedTearKeepsPrefixOfUnsyncedTail) {
  MemoryBackend device;
  const std::uint8_t data[6] = {1, 2, 3, 4, 5, 6};
  device.append(data, 6);
  device.tear_on_crash(2);
  device.crash();
  EXPECT_EQ(device.size(), 2u);
  std::uint8_t out[2] = {};
  EXPECT_EQ(device.read(0, out, 2), 2u);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 2);
}

TEST(MemoryBackend, BitFlipIsDeterministicInSeed) {
  const auto image = [](std::uint64_t seed) {
    MemoryBackend device;
    std::vector<std::uint8_t> bytes(64, 0xAB);
    device.append(bytes.data(), bytes.size());
    (void)device.sync();
    device.corrupt_bit(seed);
    std::vector<std::uint8_t> out(64);
    (void)device.read(0, out.data(), out.size());
    return out;
  };
  EXPECT_EQ(image(5), image(5));
  EXPECT_NE(image(5), image(6));
}

// --- journal scan ---

JournalRecord one_record(MemoryBackend& device, KeyInterner& dict,
                         std::uint64_t epoch, Cycle cycle) {
  JournalRecord r;
  r.epoch = epoch;
  r.cycle = cycle;
  r.entries = {{"k" + std::to_string(epoch), Value{std::int64_t(epoch)}}};
  StableStorage staged;
  for (const auto& [key, value] : r.entries) staged.write(key, value);
  std::vector<std::uint8_t> buf;
  encode_commit(buf, dict, r.epoch, r.cycle, staged);
  device.append(buf.data(), buf.size());
  return r;
}

TEST(JournalScan, RoundTripsRecords) {
  MemoryBackend device;
  KeyInterner dict;
  ASSERT_TRUE(ensure_header(device));
  one_record(device, dict, 1, 10);
  one_record(device, dict, 2, 11);
  const ScanResult scan = scan_journal(device);
  EXPECT_TRUE(scan.header_ok);
  EXPECT_FALSE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0].epoch, 1u);
  EXPECT_EQ(scan.records[1].cycle, Cycle{11});
  EXPECT_EQ(scan.records[1].entries[0].first, "k2");
  EXPECT_EQ(scan.valid_bytes, device.size());
  // The scan reconstructed the writer's dictionary.
  ASSERT_EQ(scan.dict.size(), 2u);
  EXPECT_EQ(scan.dict[0], "k1");
  EXPECT_EQ(scan.dict[1], "k2");
}

TEST(JournalScan, RepeatedKeysShipAsIdsNotStrings) {
  // Two journals of 20 commits over the same keys: one with long key names,
  // one with short. After the first commit, interning makes record size
  // independent of key length — the dictionary is paid once.
  const auto journal_bytes = [](const std::string& prefix) {
    MemoryBackend device;
    KeyInterner dict;
    ensure_header(device);
    const std::uint64_t header_and_dict_free = device.size();
    std::vector<std::uint8_t> buf;
    std::uint64_t steady_bytes = 0;
    for (std::uint64_t epoch = 1; epoch <= 20; ++epoch) {
      buf.clear();
      StableStorage staged;
      staged.write(prefix + "a", Value{std::int64_t(epoch)});
      staged.write(prefix + "b", Value{true});
      encode_commit(buf, dict, epoch, epoch, staged);
      device.append(buf.data(), buf.size());
      if (epoch > 1) steady_bytes += buf.size();
    }
    // Sanity: the journal round-trips.
    const ScanResult scan = scan_journal(device);
    EXPECT_FALSE(scan.truncated);
    EXPECT_EQ(scan.records.size(), 20u);
    EXPECT_EQ(scan.records[19].entries[0].first, prefix + "a");
    (void)header_and_dict_free;
    return steady_bytes;
  };
  const std::uint64_t long_keys = journal_bytes(std::string(64, 'x') + "/");
  const std::uint64_t short_keys = journal_bytes("s/");
  EXPECT_EQ(long_keys, short_keys);
}

TEST(JournalScan, TornFinalRecordIsReportedAtItsOffset) {
  MemoryBackend device;
  KeyInterner dict;
  ASSERT_TRUE(ensure_header(device));
  one_record(device, dict, 1, 10);
  const std::uint64_t good_end = device.size();
  one_record(device, dict, 2, 11);
  device.truncate(good_end + 5);  // record 2 torn mid-envelope/payload
  const ScanResult scan = scan_journal(device);
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, good_end);
}

TEST(JournalScan, TornDictionaryRecordTruncatesTheTail) {
  MemoryBackend device;
  KeyInterner dict;
  ASSERT_TRUE(ensure_header(device));
  one_record(device, dict, 1, 10);
  const std::uint64_t good_end = device.size();
  // Epoch 2 introduces a fresh key, so a dictionary record precedes the
  // commit record; tear inside the dictionary record.
  one_record(device, dict, 2, 11);
  device.truncate(good_end + 3);
  const ScanResult scan = scan_journal(device);
  EXPECT_TRUE(scan.truncated);
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, good_end);
  EXPECT_EQ(scan.dict.size(), 1u);  // only epoch 1's key survived
}

TEST(JournalScan, CommitReferencingUnknownKeyIdIsCorruption) {
  MemoryBackend device;
  ASSERT_TRUE(ensure_header(device));
  // Hand-build a commit record whose key id was never defined.
  std::vector<std::uint8_t> payload;
  put_u8(payload, kRecordCommit);
  put_u64(payload, 1);   // epoch
  put_u64(payload, 10);  // cycle
  put_u32(payload, 1);   // one entry
  put_varint(payload, 7);  // undefined id
  put_value(payload, Value{true});
  std::vector<std::uint8_t> env;
  put_u32(env, static_cast<std::uint32_t>(payload.size()));
  put_u32(env, crc32(payload.data(), payload.size()));
  env.insert(env.end(), payload.begin(), payload.end());
  device.append(env.data(), env.size());
  const ScanResult scan = scan_journal(device);
  EXPECT_TRUE(scan.truncated);
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.valid_bytes, kHeaderSize);
  EXPECT_NE(scan.reason.find("key id"), std::string::npos);
}

TEST(JournalScan, CrcMismatchStopsScan) {
  MemoryBackend device;
  KeyInterner dict;
  ASSERT_TRUE(ensure_header(device));
  one_record(device, dict, 1, 10);
  const std::uint64_t r2_offset = device.size();
  one_record(device, dict, 2, 11);
  one_record(device, dict, 3, 12);
  (void)device.sync();
  // Flip a payload byte of record 2 directly.
  std::uint8_t byte = 0;
  ASSERT_EQ(device.read(r2_offset + 10, &byte, 1), 1u);
  byte ^= 0x40;
  // No random access writer on the interface; reconstruct via truncate+append.
  std::vector<std::uint8_t> rest(
      static_cast<std::size_t>(device.size() - r2_offset - 11));
  ASSERT_EQ(device.read(r2_offset + 11, rest.data(), rest.size()),
            rest.size());
  std::vector<std::uint8_t> head(10);
  ASSERT_EQ(device.read(r2_offset, head.data(), head.size()), head.size());
  device.truncate(r2_offset);
  device.append(head.data(), head.size());
  device.append(&byte, 1);
  device.append(rest.data(), rest.size());
  const ScanResult scan = scan_journal(device);
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.records.size(), 1u);  // record 3 is untrusted too
  EXPECT_EQ(scan.valid_bytes, r2_offset);
  EXPECT_NE(scan.reason.find("CRC"), std::string::npos);
}

TEST(JournalScan, NonMonotoneEpochIsCorruption) {
  MemoryBackend device;
  KeyInterner dict;
  ASSERT_TRUE(ensure_header(device));
  one_record(device, dict, 2, 10);
  one_record(device, dict, 2, 11);  // replayed/duplicated epoch
  const ScanResult scan = scan_journal(device);
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.records.size(), 1u);
}

TEST(JournalScan, ImplausibleLengthPrefixDoesNotAllocate) {
  MemoryBackend device;
  ASSERT_TRUE(ensure_header(device));
  std::vector<std::uint8_t> bogus;
  put_u32(bogus, 0xFFFFFFFFu);  // 4 GiB claimed payload
  put_u32(bogus, 0);
  device.append(bogus.data(), bogus.size());
  const ScanResult scan = scan_journal(device);
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.valid_bytes, kHeaderSize);
}

/// Appends `payload` to `device` in a CRC-valid record envelope: whatever it
/// claims, only its structure can give it away.
void append_record(JournalBackend& device,
                   const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> env;
  put_u32(env, static_cast<std::uint32_t>(payload.size()));
  put_u32(env, crc32(payload.data(), payload.size()));
  env.insert(env.end(), payload.begin(), payload.end());
  device.append(env.data(), env.size());
}

TEST(JournalScan, HostileEntryCountTruncatesAtTheRecord) {
  MemoryBackend device;
  KeyInterner dict;
  ASSERT_TRUE(ensure_header(device));
  one_record(device, dict, 1, 10);
  const std::uint64_t good_end = device.size();
  // A CRC-valid commit record claiming 2^32 - 1 entries but holding one.
  std::vector<std::uint8_t> payload;
  put_u8(payload, kRecordCommit);
  put_u64(payload, 2);   // epoch
  put_u64(payload, 11);  // cycle
  put_u32(payload, 0xFFFFFFFFu);
  put_varint(payload, 0);
  put_value(payload, Value{std::int64_t{2}});
  append_record(device, payload);
  ASSERT_TRUE(device.sync());

  const ScanResult scan = scan_journal(device);
  EXPECT_TRUE(scan.truncated);
  EXPECT_EQ(scan.reason, "malformed record payload");
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, good_end);

  // Recovery keeps the good record and cuts the hostile one off.
  DurabilityEngine engine(std::make_unique<MemoryBackend>(device),
                          std::make_unique<MemoryBackend>());
  StableStorage recovered;
  const RecoveryReport report = engine.recover_into(recovered);
  EXPECT_TRUE(report.journal_truncated);
  EXPECT_EQ(report.last_epoch, 1u);
  EXPECT_EQ(report.valid_bytes, good_end);
  EXPECT_EQ(engine.journal().size(), good_end);
  EXPECT_EQ(recovered.read_as<std::int64_t>("k1").value(), 1);
}

// --- snapshots ---

/// A store whose committed state is exactly `entries` (key, value,
/// committed_at), stamped at commit epoch `epoch`.
StableStorage image_of(
    std::uint64_t epoch,
    const std::vector<std::tuple<std::string, Value, Cycle>>& entries) {
  StableStorage store;
  store.restore_batch(entries);
  store.set_commit_epochs(epoch);
  return store;
}

/// A walk of a snapshot device, and the last valid image it found
/// restored into a store (empty when there is none).
struct LastImage {
  SnapshotWalk walk;
  StableStorage store;
};

LastImage last_image(const JournalBackend& device) {
  LastImage last;
  std::vector<std::uint8_t> payload;
  last.walk = restore_last_snapshot(device, last.store, payload);
  return last;
}

TEST(Snapshots, LastValidImageWins) {
  MemoryBackend device;
  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(append_snapshot(
      device, image_of(4, {{"a", Value{std::int64_t{1}}, 2}}), buf));
  ASSERT_TRUE(append_snapshot(device,
                              image_of(9, {{"a", Value{std::int64_t{5}}, 8},
                                           {"b", Value{true}, 9}}),
                              buf));
  const LastImage last = last_image(device);
  EXPECT_EQ(last.walk.images, 2u);
  EXPECT_EQ(last.walk.last_epoch, 9u);
  const auto entries = last.store.committed_entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(std::get<Cycle>(entries[1]), Cycle{9});
}

TEST(Snapshots, TornLastImageFallsBackToPrevious) {
  MemoryBackend device;
  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(append_snapshot(
      device, image_of(4, {{"a", Value{std::int64_t{1}}, 2}}), buf));
  const std::uint64_t good_end = device.size();
  ASSERT_TRUE(append_snapshot(
      device, image_of(9, {{"a", Value{std::int64_t{5}}, 8}}), buf));
  device.truncate(good_end + 6);  // crash mid-snapshot write
  const SnapshotWalk walk = last_image(device).walk;
  EXPECT_TRUE(walk.truncated);
  EXPECT_GT(walk.images, 0u);
  EXPECT_EQ(walk.last_epoch, 4u);
  EXPECT_EQ(walk.valid_bytes, good_end);
}

TEST(Snapshots, HostileEntryCountKeepsTheGoodImage) {
  MemoryBackend device;
  std::vector<std::uint8_t> buf;
  ASSERT_TRUE(append_snapshot(
      device, image_of(4, {{"a", Value{std::int64_t{1}}, 2}}), buf));
  const std::uint64_t good_end = device.size();
  // A CRC-valid image claiming 2^62 entries but holding one.
  std::vector<std::uint8_t> payload;
  put_u64(payload, 9);  // epoch
  put_u64(payload, std::uint64_t{1} << 62);
  put_string(payload, "a");
  put_value(payload, Value{std::int64_t{5}});
  put_u64(payload, 8);
  append_record(device, payload);
  ASSERT_TRUE(device.sync());

  const SnapshotWalk walk = last_image(device).walk;
  EXPECT_TRUE(walk.truncated);
  EXPECT_STREQ(walk.reason, "malformed snapshot payload");
  EXPECT_EQ(walk.images, 1u);
  EXPECT_EQ(walk.last_epoch, 4u);
  EXPECT_EQ(walk.valid_bytes, good_end);

  // Recovery restores the good image and cuts the hostile one off.
  DurabilityEngine engine(std::make_unique<MemoryBackend>(),
                          std::make_unique<MemoryBackend>(device));
  StableStorage recovered;
  const RecoveryReport report = engine.recover_into(recovered);
  EXPECT_TRUE(report.used_snapshot);
  EXPECT_EQ(report.snapshot_epoch, 4u);
  EXPECT_EQ(engine.snapshots().size(), good_end);
  EXPECT_EQ(recovered.read_as<std::int64_t>("a").value(), 1);
}

// --- engine: commit, crash, recover ---

/// Commits `n` frames of deterministic writes through `engine` + `store`.
void run_commits(DurabilityEngine& engine, StableStorage& store, Cycle from,
                 Cycle n) {
  for (Cycle c = from; c < from + n; ++c) {
    store.write("counter", static_cast<std::int64_t>(c));
    store.write("key" + std::to_string(c % 3), 0.5 * static_cast<double>(c));
    engine.record_commit(store, c);
    store.commit(c);
    engine.after_commit(store);
  }
}

TEST(Engine, RecoverRebuildsBitIdenticalStore) {
  auto engine = make_memory_engine();
  StableStorage store;
  run_commits(*engine, store, 0, 10);
  const std::uint64_t before = store.fingerprint();

  engine->crash();  // everything was synced; nothing is lost
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), before);
  EXPECT_EQ(report.records_applied, 10u);
  EXPECT_FALSE(report.journal_truncated);
  EXPECT_FALSE(report.used_snapshot);
  EXPECT_EQ(recovered.commit_epochs(), store.commit_epochs());
}

TEST(Engine, CrashBetweenCommitAndSyncLosesExactlyTheLastCommit) {
  auto engine = make_memory_engine();
  StableStorage store;
  run_commits(*engine, store, 0, 5);
  const std::uint64_t at_5 = store.fingerprint();

  engine->journal().fail_next_sync();
  run_commits(*engine, store, 5, 1);  // commit 6 applied in memory only
  ASSERT_NE(store.fingerprint(), at_5);
  engine->crash();

  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), at_5);
  EXPECT_EQ(report.records_applied, 5u);
  // The record never reached the durable image: lost, not torn.
  EXPECT_FALSE(report.journal_truncated);
}

TEST(Engine, TornFinalRecordIsTruncatedNeverPartiallyApplied) {
  auto engine = make_memory_engine();
  StableStorage store;
  run_commits(*engine, store, 0, 5);
  const std::uint64_t at_5 = store.fingerprint();

  // A multi-key commit whose record is torn part-way onto the device.
  engine->journal().fail_next_sync();
  engine->journal().tear_on_crash(13);
  store.write("torn_a", std::int64_t{1});
  store.write("torn_b", std::int64_t{2});
  store.write("torn_c", std::int64_t{3});
  engine->record_commit(store, 5);
  store.commit(5);
  engine->crash();

  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_TRUE(report.journal_truncated);
  EXPECT_EQ(recovered.fingerprint(), at_5);
  // Atomicity: no key of the torn batch may appear.
  EXPECT_FALSE(recovered.contains("torn_a"));
  EXPECT_FALSE(recovered.contains("torn_b"));
  EXPECT_FALSE(recovered.contains("torn_c"));
  // Journaling can resume after the truncation point.
  run_commits(*engine, recovered, 6, 2);
  StableStorage again;
  (void)engine->recover_into(again);
  EXPECT_EQ(again.fingerprint(), recovered.fingerprint());
}

TEST(Engine, SnapshotCompactsJournalAndRecoveryUsesIt) {
  DurableOptions options;
  options.snapshot_every_epochs = 4;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 10);  // snapshots at epochs 4 and 8
  EXPECT_EQ(engine->stats().snapshots_taken, 2u);
  // Journal holds only the commits since the last image.
  const ScanResult scan = scan_journal(engine->journal());
  EXPECT_EQ(scan.records.size(), 2u);

  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_TRUE(report.used_snapshot);
  EXPECT_EQ(report.snapshot_epoch, 8u);
  EXPECT_EQ(report.records_applied, 2u);
  EXPECT_EQ(recovered.fingerprint(), store.fingerprint());
}

TEST(Engine, CrashMidSnapshotKeepsJournalSoNothingIsLost) {
  DurableOptions options;
  options.snapshot_every_epochs = 100;  // manual snapshots only
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 3);
  ASSERT_TRUE(engine->take_snapshot(store));
  run_commits(*engine, store, 3, 3);

  // The next snapshot attempt dies on the device: its sync fails, and the
  // crash tears the half-written image. The journal must not have been
  // compacted.
  engine->snapshots().fail_next_sync();
  engine->snapshots().tear_on_crash(9);
  EXPECT_FALSE(engine->take_snapshot(store));
  EXPECT_EQ(engine->stats().snapshot_failures, 1u);
  engine->crash();

  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_TRUE(report.used_snapshot);
  EXPECT_EQ(report.snapshot_epoch, 3u);  // the older, intact image
  EXPECT_EQ(recovered.fingerprint(), store.fingerprint());
}

TEST(Engine, BitFlipTruncatesFromTheCorruptRecordOn) {
  auto engine = make_memory_engine();
  StableStorage store;
  run_commits(*engine, store, 0, 8);
  engine->journal().corrupt_bit(1234);
  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_TRUE(report.journal_truncated);
  EXPECT_LT(report.records_applied, 8u);
  // The recovered store is a strict commit-prefix: its counter value equals
  // the cycle of the last applied record.
  if (report.records_applied > 0) {
    EXPECT_EQ(std::get<std::int64_t>(recovered.read("counter").value()),
              static_cast<std::int64_t>(report.records_applied - 1));
  }
}

TEST(Engine, GroupCommitModeLosesTailButKeepsPrefix) {
  DurableOptions options;
  options.sync = SyncPolicy::frames(1000);  // watermark never reached
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 4);
  ASSERT_TRUE(engine->sync_now());  // durability point
  const std::uint64_t at_4 = store.fingerprint();
  run_commits(*engine, store, 4, 3);  // buffered only
  engine->crash();
  StableStorage recovered;
  (void)engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), at_4);
}

// --- group commit: sync policies, lag accounting, boundary syncs ---

TEST(Engine, FramesWatermarkSyncsEveryNthCommitAndTracksLag) {
  DurableOptions options;
  options.sync = SyncPolicy::frames(4);
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 3);
  EXPECT_EQ(engine->stats().syncs, 0u);
  EXPECT_EQ(engine->stats().lag_frames, 3u);
  EXPECT_GT(engine->stats().lag_bytes, 0u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 0u);

  run_commits(*engine, store, 3, 1);  // 4th commit reaches the watermark
  EXPECT_EQ(engine->stats().syncs, 1u);
  EXPECT_EQ(engine->stats().lag_frames, 0u);
  EXPECT_EQ(engine->stats().lag_bytes, 0u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 4u);
  EXPECT_EQ(engine->stats().max_lag_frames, 4u);
}

TEST(Engine, BytesWatermarkSyncsOnAccumulatedBytes) {
  DurableOptions options;
  options.sync = SyncPolicy::bytes(1);  // any appended record crosses it
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 3);
  EXPECT_EQ(engine->stats().syncs, 3u);  // degenerates to every-commit

  DurableOptions lazy;
  lazy.sync = SyncPolicy::bytes(1u << 20);  // 1 MiB: never in this test
  auto lazy_engine = make_memory_engine(lazy);
  StableStorage lazy_store;
  run_commits(*lazy_engine, lazy_store, 0, 10);
  EXPECT_EQ(lazy_engine->stats().syncs, 0u);
  EXPECT_EQ(lazy_engine->stats().lag_frames, 10u);
}

TEST(Engine, HybridPolicySyncsOnWhicheverWatermarkHitsFirst) {
  DurableOptions options;
  options.sync = SyncPolicy::hybrid(1u << 20, 2);
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 4);
  // Frames watermark (2) fires twice; the bytes one never does.
  EXPECT_EQ(engine->stats().syncs, 2u);
}

TEST(Engine, CrashUnderWatermarkLosesOnlyUnsyncedSuffixFrames) {
  DurableOptions options;
  options.sync = SyncPolicy::frames(4);
  auto engine = make_memory_engine(options);
  StableStorage store;
  std::vector<std::uint64_t> fingerprint_at{store.fingerprint()};
  for (Cycle c = 0; c < 10; ++c) {
    run_commits(*engine, store, c, 1);
    fingerprint_at.push_back(store.fingerprint());
  }
  // 10 commits, watermark 4: synced at epochs 4 and 8; epochs 9-10 buffered.
  EXPECT_EQ(engine->stats().last_durable_epoch, 8u);
  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  // The recovered store is the exact frame-8 commit boundary: a whole-frame
  // suffix was lost, nothing was torn, nothing partially applied.
  EXPECT_EQ(recovered.fingerprint(), fingerprint_at[8]);
  EXPECT_EQ(report.last_epoch, 8u);
  EXPECT_FALSE(report.journal_truncated);
  EXPECT_EQ(recovered.commit_epochs(), 8u);
}

TEST(Engine, CrashUnderWatermarkWithTearNeverYieldsTornRecord) {
  for (std::size_t keep = 1; keep < 40; keep += 3) {
    DurableOptions options;
    options.sync = SyncPolicy::frames(100);
    auto engine = make_memory_engine(options);
    StableStorage store;
    run_commits(*engine, store, 0, 2);
    ASSERT_TRUE(engine->sync_now());
    const std::uint64_t at_2 = store.fingerprint();
    // Three more buffered commits; the crash tears `keep` bytes of them
    // onto the device.
    std::vector<std::uint64_t> after;
    after.push_back(at_2);
    for (Cycle c = 2; c < 5; ++c) {
      run_commits(*engine, store, c, 1);
      after.push_back(store.fingerprint());
    }
    engine->journal().tear_on_crash(keep);
    engine->crash();
    StableStorage recovered;
    const RecoveryReport report = engine->recover_into(recovered);
    // Whatever prefix the tear preserved, the recovered state must be an
    // exact commit boundary between epoch 2 (synced floor) and epoch 5.
    ASSERT_GE(report.last_epoch, 2u);
    ASSERT_LE(report.last_epoch, 5u);
    EXPECT_EQ(recovered.fingerprint(), after[report.last_epoch - 2])
        << "keep=" << keep;
  }
}

TEST(Engine, SyncNowIsANoOpWithoutLagAndCountsForcedSyncs) {
  DurableOptions options;
  options.sync = SyncPolicy::frames(100);
  auto engine = make_memory_engine(options);
  StableStorage store;
  EXPECT_TRUE(engine->sync_now());  // nothing buffered: no device sync
  EXPECT_EQ(engine->stats().syncs, 0u);
  EXPECT_EQ(engine->stats().forced_syncs, 0u);
  run_commits(*engine, store, 0, 2);
  EXPECT_TRUE(engine->sync_now());
  EXPECT_EQ(engine->stats().forced_syncs, 1u);
  EXPECT_EQ(engine->stats().syncs, 1u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 2u);
}

TEST(Engine, FailedSyncKeepsLagUntilALaterSyncLands) {
  DurableOptions options;
  options.sync = SyncPolicy::frames(2);
  auto engine = make_memory_engine(options);
  StableStorage store;
  engine->journal().fail_next_sync();
  run_commits(*engine, store, 0, 2);  // watermark sync fails
  EXPECT_EQ(engine->stats().sync_failures, 1u);
  EXPECT_EQ(engine->stats().lag_frames, 2u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 0u);
  // The very next commit crosses the watermark again (lag is now 3) and the
  // retry sync saves the whole backlog.
  run_commits(*engine, store, 2, 1);
  EXPECT_EQ(engine->stats().lag_frames, 0u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 3u);
}

TEST(Engine, SnapshotBoundaryForcesJournalSync) {
  DurableOptions options;
  options.snapshot_every_epochs = 100;  // manual snapshot below
  options.sync = SyncPolicy::frames(1000);
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 3);
  EXPECT_EQ(engine->stats().lag_frames, 3u);
  ASSERT_TRUE(engine->take_snapshot(store));
  EXPECT_EQ(engine->stats().forced_syncs, 1u);
  EXPECT_EQ(engine->stats().lag_frames, 0u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 3u);
  // Crash immediately after: the snapshot boundary preserved everything.
  const std::uint64_t at_3 = store.fingerprint();
  engine->crash();
  StableStorage recovered;
  (void)engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), at_3);
}

// --- key dictionary lifecycle ---

TEST(Engine, DictionaryReplaysOnRecoveryAndNewCommitsKeepInterning) {
  DurableOptions options;
  options.sync = SyncPolicy::every_commit();
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 4);
  engine->crash();
  StableStorage recovered;
  (void)engine->recover_into(recovered);
  // Post-recovery commits must encode against the journal's existing
  // dictionary — same keys, no duplicate dictionary records, and the whole
  // journal must still scan cleanly.
  run_commits(*engine, recovered, 4, 3);
  const ScanResult scan = scan_journal(engine->journal());
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.records.size(), 7u);
  engine->crash();
  StableStorage again;
  const RecoveryReport report = engine->recover_into(again);
  EXPECT_EQ(again.fingerprint(), recovered.fingerprint());
  EXPECT_EQ(report.records_applied, 7u);
}

TEST(Engine, DictionaryResetsWhenSnapshotCompactsJournal) {
  DurableOptions options;
  options.snapshot_every_epochs = 100;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 3);
  ASSERT_TRUE(engine->take_snapshot(store));  // journal truncated to header
  // The same keys recur after compaction: the fresh journal generation must
  // re-emit its dictionary, or scanning would see undefined ids.
  run_commits(*engine, store, 3, 2);
  const ScanResult scan = scan_journal(engine->journal());
  EXPECT_FALSE(scan.truncated);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_FALSE(scan.dict.empty());
  engine->crash();
  StableStorage recovered;
  (void)engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), store.fingerprint());
}

// --- snapshot-device GC ---

TEST(Engine, SnapshotGcKeepsLastTwoImagesAndCountsReclaimedBytes) {
  DurableOptions options;
  options.snapshot_every_epochs = 2;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 12);  // snapshots at 2,4,6,8,10,12
  EXPECT_EQ(engine->stats().snapshots_taken, 6u);
  const SnapshotWalk walk = last_image(engine->snapshots()).walk;
  EXPECT_EQ(walk.images, 2u);  // older images were truncated away
  EXPECT_EQ(walk.last_epoch, 12u);
  EXPECT_GT(engine->stats().snapshot_gc_runs, 0u);
  EXPECT_GT(engine->stats().snapshot_bytes_reclaimed, 0u);
  // Recovery from the GC'd device is still bit-identical.
  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), store.fingerprint());
  EXPECT_EQ(report.snapshot_epoch, 12u);
}

TEST(Engine, SnapshotGcKeepsFallbackImageForTornNextSnapshot) {
  DurableOptions options;
  options.snapshot_every_epochs = 100;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 2);
  ASSERT_TRUE(engine->take_snapshot(store));  // image @2
  run_commits(*engine, store, 2, 2);
  ASSERT_TRUE(engine->take_snapshot(store));  // image @4
  run_commits(*engine, store, 4, 2);
  ASSERT_TRUE(engine->take_snapshot(store));  // image @6; GC leaves @4,@6
  ASSERT_EQ(last_image(engine->snapshots()).walk.images, 2u);

  run_commits(*engine, store, 6, 2);
  // The next snapshot dies: sync fails and the crash tears the image. The
  // fallback image @6 plus the uncompacted journal must still recover the
  // full state.
  engine->snapshots().fail_next_sync();
  engine->snapshots().tear_on_crash(9);
  EXPECT_FALSE(engine->take_snapshot(store));
  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(report.snapshot_epoch, 6u);
  EXPECT_EQ(recovered.fingerprint(), store.fingerprint());
}

TEST(Engine, SnapshotGcSyncFailureRollsBackAndKeepsAllImages) {
  DurableOptions options;
  options.snapshot_every_epochs = 100;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 2);
  ASSERT_TRUE(engine->take_snapshot(store));
  run_commits(*engine, store, 2, 2);
  ASSERT_TRUE(engine->take_snapshot(store));
  run_commits(*engine, store, 4, 2);
  // The third snapshot triggers a GC whose rewrite sync fails; the image
  // sync right before it succeeds (fail one sync *after* one success). The
  // snapshot itself still lands, the rollback restores every image, and
  // recovery is unaffected.
  engine->snapshots().fail_sync_after(1);
  ASSERT_TRUE(engine->take_snapshot(store));
  EXPECT_EQ(engine->stats().snapshot_gc_runs, 0u);
  EXPECT_EQ(engine->stats().snapshot_bytes_reclaimed, 0u);
  EXPECT_EQ(engine->stats().snapshot_failures, 1u);
  EXPECT_EQ(last_image(engine->snapshots()).walk.images, 3u);
  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(report.snapshot_epoch, 6u);
  EXPECT_EQ(recovered.fingerprint(), store.fingerprint());
}

/// An engine's whole state as one hash: every byte of both devices (and
/// their synced sizes), the digested words, the stats and the journal
/// dictionary.
std::uint64_t engine_state(DurabilityEngine& engine) {
  std::uint64_t h = kFnvBasis;
  for (JournalBackend* device : {&engine.journal(), &engine.snapshots()}) {
    std::vector<std::uint8_t> bytes(static_cast<std::size_t>(device->size()));
    EXPECT_EQ(device->read(0, bytes.data(), bytes.size()), bytes.size());
    h = fnv_mix(h, device->size());
    h = fnv_mix(h, device->synced_size());
    h = fnv_mix_bytes(h, bytes);
  }
  const EngineView view = engine.view();
  for (const std::uint64_t word :
       {view.appended_epoch, view.journal_generation, view.rebase_epoch,
        view.ship_horizon, view.adaptive_watermark_fp,
        std::uint64_t{view.rebase_ok}, std::uint64_t{view.reconfig_pressure}}) {
    h = fnv_mix(h, word);
  }
  h = fnv_mix_bytes(h, view.retained_tail);
  const DurabilityStats& stats = engine.stats();
  static_assert(std::has_unique_object_representations_v<DurabilityStats>);
  h = fnv_mix_bytes(
      h, {reinterpret_cast<const std::uint8_t*>(&stats), sizeof stats});
  for (const std::string& name : engine.dictionary()) {
    h = fnv_mix_bytes(h, name);
    h = fnv_mix(h, name.size());
  }
  return h;
}

// --- file backend ---

TEST(FileBackend, ColdRestartRecoversFromDisk) {
  const std::string dir = ::testing::TempDir();
  const std::string wal = dir + "/arfs_test.wal";
  const std::string snap = dir + "/arfs_test.snap";
  std::remove(wal.c_str());
  std::remove(snap.c_str());

  std::uint64_t before = 0;
  {
    DurableOptions options;
    options.snapshot_every_epochs = 3;
    DurabilityEngine engine(std::make_unique<FileBackend>(wal),
                            std::make_unique<FileBackend>(snap), options);
    StableStorage store;
    run_commits(engine, store, 0, 8);
    before = store.fingerprint();
  }  // process "dies"; only the files survive

  {
    DurabilityEngine engine(std::make_unique<FileBackend>(wal),
                            std::make_unique<FileBackend>(snap));
    ASSERT_TRUE(engine.has_state());
    StableStorage recovered;
    const RecoveryReport report = engine.recover_into(recovered);
    EXPECT_EQ(recovered.fingerprint(), before);
    EXPECT_TRUE(report.used_snapshot);
  }
  std::remove(wal.c_str());
  std::remove(snap.c_str());
}

TEST(FileBackend, MissingFileWithoutCreateThrows) {
  EXPECT_THROW(FileBackend("/nonexistent-dir-zzz/x.wal", /*create=*/false),
               Error);
}

namespace eintr_hooks {

int fsync_failures = 0;
int pwrite_failures = 0;

int fsync_with_eintr(int fd) {
  if (fsync_failures > 0) {
    --fsync_failures;
    errno = EINTR;
    return -1;
  }
  return ::fsync(fd);
}

long pwrite_with_eintr(int fd, const void* buf, std::size_t n,
                       std::int64_t offset) {
  if (pwrite_failures > 0) {
    --pwrite_failures;
    errno = EINTR;
    return -1;
  }
  return ::pwrite(fd, buf, n, static_cast<off_t>(offset));
}

}  // namespace eintr_hooks

TEST(FileBackend, SyncRetriesEintrFromPwriteAndFsync) {
  const std::string path = ::testing::TempDir() + "/arfs_eintr.wal";
  std::remove(path.c_str());
  FileBackend::fsync_hook = eintr_hooks::fsync_with_eintr;
  FileBackend::pwrite_hook = eintr_hooks::pwrite_with_eintr;

  {
    FileBackend backend(path);
    const std::uint8_t payload[] = {1, 2, 3, 4, 5, 6, 7, 8};
    backend.append(payload, sizeof payload);

    // A signal interrupting the write AND the fsync — repeatedly — is not
    // an I/O failure: sync() must retry through every EINTR and land the
    // bytes durably.
    eintr_hooks::pwrite_failures = 3;
    eintr_hooks::fsync_failures = 3;
    EXPECT_TRUE(backend.sync());
    EXPECT_EQ(eintr_hooks::pwrite_failures, 0);
    EXPECT_EQ(eintr_hooks::fsync_failures, 0);
    EXPECT_EQ(backend.synced_size(), sizeof payload);

    std::uint8_t readback[sizeof payload] = {};
    EXPECT_EQ(backend.read(0, readback, sizeof readback), sizeof payload);
    EXPECT_EQ(std::memcmp(readback, payload, sizeof payload), 0);
  }

  FileBackend::fsync_hook = nullptr;
  FileBackend::pwrite_hook = nullptr;
  // The durable size survives a reopen — the interrupted sync really wrote.
  FileBackend reopened(path, /*create=*/false);
  EXPECT_EQ(reopened.synced_size(), 8u);
  std::remove(path.c_str());
}

/// The ContractViolation `target.restore_state(source)` throws, as text;
/// empty when the copy went through.
std::string copy_refusal(DurabilityEngine& target,
                         const DurabilityEngine& source) {
  try {
    target.restore_state(source);
  } catch (const ContractViolation& refused) {
    return refused.what();
  }
  return {};
}

TEST(FileBackend, EngineCopyRefusesAFileDeviceOnEitherSideAndChangesNothing) {
  // Only memory devices can be copied. A file device on either side, or
  // behind either device of the target, refuses the copy before anything
  // is written: the target keeps every byte and word it had.
  const std::string dir = ::testing::TempDir();
  const std::string wal = dir + "/arfs_copy.wal";
  const std::string snap = dir + "/arfs_copy.snap";
  const std::string mixed_snap = dir + "/arfs_copy_mixed.snap";
  for (const std::string& path : {wal, snap, mixed_snap}) {
    std::remove(path.c_str());
  }
  {
    DurableOptions options;
    options.snapshot_every_epochs = 3;
    DurabilityEngine file(std::make_unique<FileBackend>(wal),
                          std::make_unique<FileBackend>(snap), options);
    StableStorage file_store;
    run_commits(file, file_store, 0, 5);
    // A memory journal in front of a file snapshot device.
    DurabilityEngine mixed(std::make_unique<MemoryBackend>(),
                           std::make_unique<FileBackend>(mixed_snap),
                           options);
    StableStorage mixed_store;
    run_commits(mixed, mixed_store, 0, 4);
    auto memory = make_memory_engine(options);
    StableStorage memory_store;
    run_commits(*memory, memory_store, 0, 7);

    const std::uint64_t file_before = engine_state(file);
    const std::uint64_t mixed_before = engine_state(mixed);
    const std::uint64_t memory_before = engine_state(*memory);
    const std::string refusal = "checkpoints need memory journal devices";
    EXPECT_NE(copy_refusal(*memory, file).find(refusal), std::string::npos);
    EXPECT_NE(copy_refusal(file, *memory).find(refusal), std::string::npos);
    EXPECT_NE(copy_refusal(mixed, *memory).find(refusal), std::string::npos);
    EXPECT_NE(copy_refusal(*memory, mixed).find(refusal), std::string::npos);
    EXPECT_EQ(engine_state(file), file_before);
    EXPECT_EQ(engine_state(mixed), mixed_before);
    EXPECT_EQ(engine_state(*memory), memory_before);
  }
  for (const std::string& path : {wal, snap, mixed_snap}) {
    std::remove(path.c_str());
  }
}

// --- processor integration: halt mid-frame, restart, recover ---

TEST(ProcessorDurability, HaltReconcilesPollableStateWithDevices) {
  failstop::Processor proc{ProcessorId{1}};
  proc.enable_durability(make_memory_engine());
  for (Cycle c = 0; c < 6; ++c) {
    proc.stable().write("alt", static_cast<std::int64_t>(100 * c));
    proc.stable().write("mode", std::string{"cruise"});
    proc.commit_frame(c);
  }
  const std::uint64_t before_halt = proc.poll_stable().fingerprint();

  // Mid-frame: writes staged but the frame never commits.
  proc.stable().write("alt", std::int64_t{999});
  proc.fail(6);

  // Peers polling the failed processor see exactly the recovered committed
  // store — bit-identical to the pre-halt committed state.
  EXPECT_EQ(proc.poll_stable().fingerprint(), before_halt);
  ASSERT_TRUE(proc.last_recovery().has_value());
  EXPECT_FALSE(proc.last_recovery()->journal_truncated);
  EXPECT_EQ(proc.last_recovery()->records_applied, 6u);

  proc.repair(7);
  EXPECT_EQ(proc.poll_stable().fingerprint(), before_halt);
  // And the restarted processor keeps journaling from where the disk is.
  proc.stable().write("alt", std::int64_t{700});
  proc.commit_frame(7);
  EXPECT_EQ(std::get<std::int64_t>(proc.poll_stable().read("alt").value()),
            700);
}

TEST(ProcessorDurability, TornRecordAtHaltRollsBackOneFrame) {
  failstop::Processor proc{ProcessorId{2}};
  proc.enable_durability(make_memory_engine());
  std::uint64_t fingerprint_at[8] = {};
  for (Cycle c = 0; c < 5; ++c) {
    proc.stable().write("x", static_cast<std::int64_t>(c));
    proc.commit_frame(c);
    fingerprint_at[c] = proc.poll_stable().fingerprint();
  }
  // Frame 5's record: sync fails, and the halt tears it on the device.
  proc.durability()->journal().fail_next_sync();
  proc.durability()->journal().tear_on_crash(6);
  proc.stable().write("x", std::int64_t{5});
  proc.commit_frame(5);
  proc.fail(6);

  // The device-truth state is frame 4's commit; the torn frame-5 record was
  // truncated, never partially applied.
  EXPECT_EQ(proc.poll_stable().fingerprint(), fingerprint_at[4]);
  ASSERT_TRUE(proc.last_recovery().has_value());
  EXPECT_TRUE(proc.last_recovery()->journal_truncated);
  EXPECT_EQ(std::get<std::int64_t>(proc.poll_stable().read("x").value()), 4);
}

TEST(ProcessorDurability, ColdRestartViaEnableDurability) {
  auto engine = make_memory_engine();
  {
    StableStorage store;
    store.write("persisted", std::int64_t{11});
    engine->record_commit(store, 3);
    store.commit(3);
  }
  failstop::Processor proc{ProcessorId{3}};
  proc.enable_durability(std::move(engine));  // devices already hold state
  EXPECT_EQ(
      std::get<std::int64_t>(proc.poll_stable().read("persisted").value()),
      11);
  EXPECT_TRUE(proc.last_recovery().has_value());
}

// --- spares: a checkpoint of a processor is a spare processor ---

TEST(ProcessorSpare, AVolatileProcessorsSpareHasNoEngine) {
  failstop::Processor proc{ProcessorId{4}};
  proc.stable().write("x", std::int64_t{1});
  proc.commit_frame(0);
  failstop::Processor spare = proc.spare();
  EXPECT_EQ(spare.id(), proc.id());
  EXPECT_TRUE(spare.running());
  EXPECT_EQ(spare.durability(), nullptr);
  EXPECT_EQ(spare.poll_stable().committed_count(), 0u);
}

TEST(ProcessorSpare, ADurableProcessorsSpareHasAnEmptyEngineWithItsOptions) {
  DurableOptions options;
  options.snapshot_every_epochs = 3;
  options.sync = SyncPolicy::adaptive(1024, 256, 8192, 9);
  failstop::Processor proc{ProcessorId{5}};
  proc.enable_durability(make_memory_engine(options));
  for (Cycle c = 0; c < 5; ++c) {
    proc.stable().write("x", static_cast<std::int64_t>(c));
    proc.commit_frame(c);
  }
  failstop::Processor spare = proc.spare();
  EXPECT_EQ(spare.id(), proc.id());
  EXPECT_EQ(spare.poll_stable().committed_count(), 0u);
  DurabilityEngine* engine = spare.durability();
  ASSERT_NE(engine, nullptr);
  EXPECT_NE(engine, proc.durability());
  EXPECT_FALSE(engine->has_state());
  EXPECT_EQ(engine->stats().commits_journaled, 0u);
  EXPECT_NE(dynamic_cast<MemoryBackend*>(&engine->journal()), nullptr);
  EXPECT_NE(dynamic_cast<MemoryBackend*>(&engine->snapshots()), nullptr);
  const DurableOptions& got = engine->options();
  EXPECT_EQ(got.snapshot_every_epochs, options.snapshot_every_epochs);
  EXPECT_EQ(got.sync.mode, options.sync.mode);
  EXPECT_EQ(got.sync.bytes_watermark, options.sync.bytes_watermark);
  EXPECT_EQ(got.sync.frames_watermark, options.sync.frames_watermark);
  EXPECT_EQ(got.sync.adaptive_min_bytes, options.sync.adaptive_min_bytes);
  EXPECT_EQ(got.sync.adaptive_max_bytes, options.sync.adaptive_max_bytes);
}

TEST(ProcessorSpare, ARefreshedSpareDrivenLikeItsSourceStaysItsCopy) {
  // A spare refreshed from a live processor and then given the same
  // commits runs its own engine under its own options, so it stays an
  // exact copy only if the spare's engine carries the source's: the same
  // sync policy and the same compaction cadence.
  DurableOptions options;
  options.snapshot_every_epochs = 4;
  options.sync = SyncPolicy::frames(3);
  failstop::Processor source{ProcessorId{6}};
  source.enable_durability(make_memory_engine(options));
  const auto commit = [](failstop::Processor& p, Cycle c) {
    p.stable().write("counter", static_cast<std::int64_t>(c));
    p.stable().write("key" + std::to_string(c % 3),
                     0.5 * static_cast<double>(c));
    p.commit_frame(c);
  };
  for (Cycle c = 0; c < 6; ++c) commit(source, c);
  failstop::Processor spare = source.spare();
  spare.restore_state(source);
  const std::uint64_t generation = source.durability()->journal_generation();
  for (Cycle c = 6; c < 22; ++c) {
    commit(source, c);
    commit(spare, c);
  }
  // At least two compactions and un-synced lag since the refresh.
  ASSERT_GE(source.durability()->journal_generation(), generation + 2);
  ASSERT_GT(source.durability()->stats().lag_frames, 0u);
  EXPECT_EQ(engine_state(*spare.durability()),
            engine_state(*source.durability()));
  EXPECT_EQ(spare.poll_stable().fingerprint(),
            source.poll_stable().fingerprint());
  EXPECT_EQ(spare.poll_stable().commit_epochs(),
            source.poll_stable().commit_epochs());

  // And both halt to the same recovered store.
  source.fail(22);
  spare.fail(22);
  EXPECT_EQ(spare.poll_stable().fingerprint(),
            source.poll_stable().fingerprint());
  EXPECT_EQ(spare.lost_epochs(), source.lost_epochs());
  EXPECT_EQ(engine_state(*spare.durability()),
            engine_state(*source.durability()));
}

// --- determinism across thread counts ---

/// One independent crash-recover job: seeded commits with seeded I/O faults,
/// a crash, and a recovery. Returns a digest of the recovered store and the
/// recovery report.
std::uint64_t crash_recover_job(std::uint64_t seed) {
  Rng rng(seed);
  DurableOptions options;
  options.snapshot_every_epochs = 1 + rng.uniform(0, 5);
  auto engine = make_memory_engine(options);
  StableStorage store;
  const Cycle frames = 8 + static_cast<Cycle>(rng.uniform(0, 8));
  for (Cycle c = 0; c < frames; ++c) {
    store.write("k" + std::to_string(rng.uniform(0, 4)),
                static_cast<std::int64_t>(rng.next_u64() & 0xFFFF));
    if (rng.chance(0.2)) engine->journal().fail_next_sync();
    if (rng.chance(0.15)) {
      engine->journal().tear_on_crash(1 + rng.uniform(0, 20));
    }
    engine->record_commit(store, c);
    store.commit(c);
    engine->after_commit(store);
    if (rng.chance(0.1)) engine->journal().corrupt_bit(rng.next_u64());
  }
  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  return recovered.fingerprint() ^ (report.records_applied * 1315423911ULL) ^
         (report.journal_truncated ? 0x9E3779B97F4A7C15ULL : 0);
}

TEST(DurableDeterminism, RecoveryBitIdenticalAcrossThreadCounts) {
  constexpr std::size_t kJobs = 48;
  const auto digests_with = [&](std::size_t threads) {
    sim::BatchOptions options;
    options.threads = threads;
    sim::BatchRunner runner(options);
    return runner.map<std::uint64_t>(kJobs, [](std::size_t i) {
      return crash_recover_job(sim::job_seed(2024, i));
    });
  };
  const auto serial = digests_with(1);
  const auto parallel = digests_with(4);
  EXPECT_EQ(serial, parallel);
}

}  // namespace
}  // namespace arfs::storage::durable
