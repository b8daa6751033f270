// Journal shipping: warm-start replication of a durable store's WAL.
//
// Three layers under test: the batch protocol (JournalShipper /
// ShippedReplica — framing, cursor resume, corruption rewind, compaction
// rebase, full-copy reseed), the one-member replica cohort that carries it
// (slot byte budgets, idempotent catch-up, media-fault escalation), and the
// assembled System (warm relocations that move only the un-shipped journal
// tail, and the journal-aware SCRAM that re-initializes after a lossy
// recovery instead of silently resuming).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/storage/durable/shipping.hpp"
#include "arfs/storage/durable/wire.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "arfs/trace/reconfigs.hpp"

namespace arfs {
namespace {

using storage::Value;
using storage::StableStorage;
using storage::durable::ApplyStatus;
using storage::durable::decode_batch;
using storage::durable::DurabilityEngine;
using storage::durable::DurableOptions;
using storage::durable::encode_batch;
using storage::durable::encoded_state_bytes;
using storage::durable::JournalShipper;
using storage::durable::kHeaderSize;
using storage::durable::make_memory_engine;
using storage::durable::ShipBatch;
using storage::durable::ShipCursor;
using storage::durable::ShippedReplica;
using storage::durable::ShipStatus;
using storage::durable::SyncPolicy;
using storage::durable::quorum::QuorumGroup;
using storage::durable::quorum::QuorumOptions;

/// A source store + engine pair driven through the real commit protocol.
struct Source {
  StableStorage store;
  std::unique_ptr<DurabilityEngine> engine;

  explicit Source(DurableOptions options = {})
      : engine(make_memory_engine(options)) {}

  void commit_frame(
      Cycle cycle,
      const std::vector<std::pair<std::string, std::int64_t>>& writes) {
    for (const auto& [key, value] : writes) store.write(key, Value{value});
    engine->record_commit(store, cycle);
    store.commit(cycle);
    engine->after_commit(store);
  }
};

/// Ships until the replica is caught up; returns bytes moved. Expects the
/// plain path only (no rebase / lost cursor / corruption).
std::size_t ship_all(JournalShipper& shipper, ShippedReplica& replica,
                     std::size_t max_bytes = 64 * 1024) {
  std::size_t total = 0;
  ShipBatch batch;
  while (shipper.next_batch(replica.cursor(), max_bytes, batch) ==
         ShipStatus::kBatch) {
    total += batch.bytes.size();
    EXPECT_EQ(replica.apply(batch), ApplyStatus::kApplied);
  }
  return total;
}

// --- batch wire framing ---

TEST(ShipWire, BatchRoundTripsThroughTwentyByteFrameHeader) {
  ShipBatch batch;
  batch.generation = 3;
  batch.offset = 77;
  batch.bytes = {10, 20, 30, 40, 50};
  batch.crc = storage::durable::crc32(batch.bytes.data(), batch.bytes.size());

  std::vector<std::uint8_t> frame;
  encode_batch(frame, batch);
  // u64 generation + u64 offset + u32 length, then bytes, then u32 CRC.
  ASSERT_EQ(frame.size(), 8u + 8u + 4u + batch.bytes.size() + 4u);

  const auto decoded = decode_batch(frame.data(), frame.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->generation, 3u);
  EXPECT_EQ(decoded->offset, 77u);
  EXPECT_EQ(decoded->bytes, batch.bytes);
  EXPECT_EQ(decoded->crc, batch.crc);

  // Truncated anywhere — inside the header or inside the payload — the
  // frame must decode to nothing, never to a short batch.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(decode_batch(frame.data(), n).has_value()) << n;
  }
}

// --- replication protocol ---

TEST(ShipReplicate, ReplayedStreamIsBitIdenticalToTheSource) {
  Source source;
  for (Cycle c = 1; c <= 8; ++c) {
    source.commit_frame(c, {{"alt", std::int64_t(100 + c)},
                            {"spd", std::int64_t(c)}});
  }

  JournalShipper shipper(*source.engine);
  ShippedReplica replica;
  const std::size_t moved = ship_all(shipper, replica);

  EXPECT_GT(moved, 0u);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
  EXPECT_EQ(replica.store().commit_epochs(), source.store.commit_epochs());
  EXPECT_EQ(replica.stats().records_applied, 8u);
  const auto alt = replica.store().read_as<std::int64_t>("alt");
  ASSERT_TRUE(alt);
  EXPECT_EQ(alt.value(), 108);
  // The engine accounted the traffic and the settled lag.
  EXPECT_EQ(source.engine->stats().shipped_bytes, moved);
  EXPECT_EQ(source.engine->stats().ship_lag_bytes, 0u);
}

TEST(ShipReplicate, OnlySyncedBytesEverShip) {
  // A large bytes watermark keeps every commit in the buffered tail: the
  // journal has content, but none of it is durable — so none of it ships
  // (the replica must never hold state a crash would not preserve).
  Source source({/*snapshot_every_epochs=*/0, SyncPolicy::bytes(1 << 20)});
  for (Cycle c = 1; c <= 3; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }

  JournalShipper shipper(*source.engine);
  ShippedReplica replica;
  ShipBatch batch;
  EXPECT_EQ(shipper.next_batch(replica.cursor(), 64 * 1024, batch),
            ShipStatus::kUpToDate);
  EXPECT_NE(replica.store().fingerprint(), source.store.fingerprint());

  // The boundary sync makes the tail durable; now it ships.
  ASSERT_TRUE(source.engine->sync_now());
  ship_all(shipper, replica);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
}

TEST(ShipReplicate, DictionaryReplaysAcrossTheShippedStream) {
  Source source;
  source.commit_frame(1, {{"nav/lat", 10}, {"nav/lon", 20}});

  JournalShipper shipper(*source.engine);
  ShippedReplica replica;
  ship_all(shipper, replica);

  // New keys interned mid-stream arrive as dictionary records *after* the
  // replica already consumed the first announcement — the id space must
  // keep extending, not restart.
  source.commit_frame(2, {{"nav/lat", 11}, {"nav/alt", 500}});
  source.commit_frame(3, {{"nav/alt", 501}});
  ship_all(shipper, replica);

  EXPECT_GE(replica.stats().dict_records, 2u);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
  const auto lon = replica.store().read_as<std::int64_t>("nav/lon");
  const auto alt = replica.store().read_as<std::int64_t>("nav/alt");
  ASSERT_TRUE(lon);
  ASSERT_TRUE(alt);
  EXPECT_EQ(lon.value(), 20);
  EXPECT_EQ(alt.value(), 501);
}

TEST(ShipReplicate, CursorResumesMidRecordUnderTinyBudgets) {
  Source source;
  for (Cycle c = 1; c <= 6; ++c) {
    source.commit_frame(c, {{"key/with/a/longish/name", std::int64_t(c)}});
  }

  // Five-byte batches cannot even hold one record header: every record
  // crosses several batches and the replica's pending buffer carries the
  // partial tail across applies.
  JournalShipper shipper(*source.engine);
  ShippedReplica replica;
  bool saw_partial = false;
  ShipBatch batch;
  while (shipper.next_batch(replica.cursor(), 5, batch) ==
         ShipStatus::kBatch) {
    ASSERT_LE(batch.bytes.size(), 5u);
    ASSERT_EQ(replica.apply(batch), ApplyStatus::kApplied);
    saw_partial = saw_partial || replica.pending_bytes() > 0;
  }

  EXPECT_TRUE(saw_partial);
  EXPECT_EQ(replica.pending_bytes(), 0u);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
  EXPECT_EQ(replica.stats().records_applied, 6u);
}

TEST(ShipReplicate, TransitCorruptionConsumesNothing) {
  Source source;
  source.commit_frame(1, {{"k", 1}});

  JournalShipper shipper(*source.engine);
  ShippedReplica replica;
  ShipBatch batch;
  ASSERT_EQ(shipper.next_batch(replica.cursor(), 64 * 1024, batch),
            ShipStatus::kBatch);

  ShipBatch mangled = batch;
  mangled.bytes[0] ^= 0x01;  // CRC now disagrees: a transit fault
  EXPECT_EQ(replica.apply(mangled), ApplyStatus::kCorrupt);
  EXPECT_EQ(replica.cursor().offset, kHeaderSize);
  EXPECT_EQ(replica.stats().crc_rejects, 1u);

  // The clean retransmission of the same batch succeeds.
  EXPECT_EQ(replica.apply(batch), ApplyStatus::kApplied);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
}

TEST(ShipReplicate, RecordCorruptionRewindsToTheLastGoodBoundary) {
  Source source;
  for (Cycle c = 1; c <= 3; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }

  JournalShipper shipper(*source.engine);
  ShippedReplica replica;
  ShipBatch batch;
  ASSERT_EQ(shipper.next_batch(replica.cursor(), 64 * 1024, batch),
            ShipStatus::kBatch);

  // Flip the last payload byte: the third record's CRC fails *after* the
  // first two records applied cleanly. The transit CRC is recomputed so the
  // fault models a bad source byte, not a transit error.
  ShipBatch mangled = batch;
  mangled.bytes.back() ^= 0x40;
  mangled.crc =
      storage::durable::crc32(mangled.bytes.data(), mangled.bytes.size());
  EXPECT_EQ(replica.apply(mangled), ApplyStatus::kCorrupt);

  // The good prefix stayed applied; the cursor rewound to the corrupt
  // record's boundary, not to the start of the batch.
  EXPECT_EQ(replica.cursor().epoch, 2u);
  EXPECT_GT(replica.cursor().offset, kHeaderSize);
  EXPECT_LT(replica.cursor().offset, batch.offset + batch.bytes.size());
  EXPECT_EQ(replica.pending_bytes(), 0u);

  // A clean retransmission from the rewound cursor completes the stream.
  ASSERT_EQ(shipper.next_batch(replica.cursor(), 64 * 1024, batch),
            ShipStatus::kBatch);
  EXPECT_EQ(replica.apply(batch), ApplyStatus::kApplied);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
}

TEST(ShipReplicate, HostileEntryCountIsCorruptAndAppliesNothing) {
  using namespace storage::durable;
  // A dictionary record, then a CRC-valid commit record that claims
  // 2^32 - 1 entries but holds one.
  const auto envelope = [](std::vector<std::uint8_t>& out,
                           const std::vector<std::uint8_t>& payload) {
    put_u32(out, static_cast<std::uint32_t>(payload.size()));
    put_u32(out, crc32(payload.data(), payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
  };
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> payload;
  put_u8(payload, kRecordDict);
  put_varint(payload, 0);  // first id
  put_varint(payload, 1);  // count
  put_string(payload, "k");
  envelope(stream, payload);
  const std::size_t dict_end = stream.size();
  payload.clear();
  put_u8(payload, kRecordCommit);
  put_u64(payload, 1);  // epoch
  put_u64(payload, 1);  // cycle
  put_u32(payload, 0xFFFFFFFFu);
  put_varint(payload, 0);
  put_value(payload, Value{std::int64_t{7}});
  envelope(stream, payload);

  ShippedReplica replica;
  const std::uint64_t before = replica.store().fingerprint();
  ShipBatch batch;
  batch.generation = replica.cursor().generation;
  batch.offset = replica.cursor().offset;
  batch.bytes = stream;
  batch.crc = crc32(stream.data(), stream.size());
  EXPECT_EQ(replica.apply(batch), ApplyStatus::kCorrupt);
  EXPECT_EQ(replica.store().fingerprint(), before);
  EXPECT_EQ(replica.store().commit_epochs(), 0u);
  EXPECT_EQ(replica.cursor().epoch, 0u);
  // The cursor rewound to the hostile record's boundary.
  EXPECT_EQ(replica.cursor().offset, kHeaderSize + dict_end);
  EXPECT_EQ(replica.pending_bytes(), 0u);
}

TEST(ShipReplicate, CompactionRebasesACaughtUpReplica) {
  Source source({/*snapshot_every_epochs=*/4, SyncPolicy::every_commit()});
  JournalShipper shipper(*source.engine);
  ShippedReplica replica;

  for (Cycle c = 1; c <= 3; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  ship_all(shipper, replica);
  ASSERT_EQ(source.engine->journal_generation(), 0u);

  // Epoch 4 snapshots and compacts: generation 1. The replica still owes
  // the epoch-4 record, which now lives only in the retained tail.
  source.commit_frame(4, {{"k", 4}});
  ASSERT_EQ(source.engine->journal_generation(), 1u);

  ShipBatch batch;
  ASSERT_EQ(shipper.next_batch(replica.cursor(), 64 * 1024, batch),
            ShipStatus::kBatch);
  EXPECT_EQ(batch.generation, 0u);  // served from the retained tail
  ASSERT_EQ(replica.apply(batch), ApplyStatus::kApplied);
  EXPECT_EQ(replica.cursor().epoch, 4u);

  // Tail consumed: the shipper orders a rebase onto generation 1.
  ASSERT_EQ(shipper.next_batch(replica.cursor(), 64 * 1024, batch),
            ShipStatus::kRebase);
  replica.rebase(source.engine->journal_generation(),
                 source.engine->rebase_epoch());
  EXPECT_EQ(replica.cursor().generation, 1u);
  EXPECT_EQ(replica.cursor().offset, kHeaderSize);

  // Post-compaction commits ship through the fresh generation unbroken.
  source.commit_frame(5, {{"k", 5}, {"fresh", 1}});
  ship_all(shipper, replica);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
  EXPECT_EQ(replica.stats().rebases, 1u);
}

TEST(ShipReplicate, LaggingTwoCompactionsLosesTheCursor) {
  Source source({/*snapshot_every_epochs=*/2, SyncPolicy::every_commit()});
  JournalShipper shipper(*source.engine);
  ShippedReplica replica;

  // Two compactions pass with nothing shipped: only one prior generation
  // is retained, so the cursor is unrecoverable — full copy.
  for (Cycle c = 1; c <= 5; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}, {"j", std::int64_t(-c)}});
  }
  ASSERT_GE(source.engine->journal_generation(), 2u);

  ShipBatch batch;
  EXPECT_EQ(shipper.next_batch(replica.cursor(), 64 * 1024, batch),
            ShipStatus::kCursorLost);

  replica.reset_from_full_copy(source.store, source.engine->dictionary(),
                               source.engine->journal_generation(),
                               source.engine->journal().synced_size());
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
  EXPECT_EQ(replica.stats().resets, 1u);
  EXPECT_EQ(shipper.next_batch(replica.cursor(), 64 * 1024, batch),
            ShipStatus::kUpToDate);

  // Later commits reference ids the copied dictionary already announced.
  source.commit_frame(6, {{"k", 6}});
  ship_all(shipper, replica);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
}

TEST(ShipReplicate, FullCopyBeforeTheFirstSyncResumesPastTheHeader) {
  // Nothing has synced yet, so not even the journal header is on the
  // device: synced_size() is 0. The reseeded cursor must still start past
  // the header, or the header bytes would ship as a corrupt record.
  Source source(DurableOptions{.sync = SyncPolicy::bytes(1 << 20)});
  source.commit_frame(1, {{"k", 1}});
  ASSERT_EQ(source.engine->journal().synced_size(), 0u);

  ShippedReplica replica;
  replica.reset_from_full_copy(source.store, source.engine->dictionary(),
                               source.engine->journal_generation(),
                               source.engine->journal().synced_size());
  EXPECT_EQ(replica.cursor().offset, kHeaderSize);

  source.commit_frame(2, {{"k", 2}});
  ASSERT_TRUE(source.engine->sync_now());
  JournalShipper shipper(*source.engine);
  EXPECT_GT(ship_all(shipper, replica), 0u);
  EXPECT_EQ(replica.store().fingerprint(), source.store.fingerprint());
}

TEST(ShipReplicate, AttachedEngineMakesTheStandbyItselfDurable) {
  Source source;
  JournalShipper shipper(*source.engine);
  ShippedReplica replica;
  replica.attach_engine(make_memory_engine());

  for (Cycle c = 1; c <= 5; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  ship_all(shipper, replica);
  ASSERT_EQ(replica.store().fingerprint(), source.store.fingerprint());

  // The standby crashes. Its own write-ahead journal recovers the replica
  // state bit-identically — shipping composed with durability, not instead
  // of it.
  replica.engine()->crash();
  StableStorage recovered;
  const auto report = replica.engine()->recover_into(recovered);
  EXPECT_EQ(report.last_epoch, 5u);
  EXPECT_EQ(recovered.fingerprint(), source.store.fingerprint());
}

TEST(ShipReplicate, EncodedStateBytesRestrictsToThePrefix) {
  StableStorage store;
  store.write("a1/x", Value{std::int64_t{1}});
  store.write("a2/y", Value{std::int64_t{2}});
  store.commit(1);
  const std::uint64_t all = encoded_state_bytes(store);
  const std::uint64_t a1 = encoded_state_bytes(store, "a1/");
  EXPECT_GT(a1, 0u);
  EXPECT_LT(a1, all);
}

/// The wire bytes of `store`'s committed entries under `prefix`, from a
/// real encoding: what encoded_state_bytes counts without encoding.
std::uint64_t encoded_length(const StableStorage& store,
                             const std::string& prefix) {
  std::vector<std::uint8_t> bytes;
  for (const auto& [key, value, cycle] : store.committed_entries()) {
    if (key.compare(0, prefix.size(), prefix) != 0) continue;
    storage::durable::put_string(bytes, key);
    storage::durable::put_value(bytes, value);
    storage::durable::put_u64(bytes, cycle);
  }
  return bytes.size();
}

TEST(ShipReplicate, EncodedStateBytesEqualsTheLengthOfARealEncoding) {
  Rng rng(2718);
  const std::vector<std::string> prefixes = {"", "a1/", "a2/", "b/",
                                             "zz/", "a1/long"};
  // Three regions and unprefixed keys.
  const char* const regions[] = {"a1/", "a2/", "b/", ""};
  for (int round = 0; round < 40; ++round) {
    StableStorage store;
    const std::uint64_t keys = rng.uniform(0, 24);
    Cycle cycle = 1;
    for (std::uint64_t k = 0; k < keys; ++k) {
      // Keys repeat, so later commits overwrite earlier ones.
      std::string key = regions[rng.uniform(0, 3)];
      key += rng.uniform(0, 1) == 0 ? "k" : "long_key_name_";
      key += std::to_string(rng.uniform(0, 9));
      switch (rng.uniform(0, 5)) {
        case 0:
          store.write(key, Value{rng.uniform(0, 1) == 1});
          break;
        case 1:
          store.write(key, Value{static_cast<std::int64_t>(rng.next_u64())});
          break;
        case 2:
          store.write(key, Value{rng.uniform_real(-1e9, 1e9)});
          break;
        case 3:
          store.write(key, Value{std::string()});
          break;
        case 4:
          store.write(key,
                      Value{std::string(rng.uniform(100, 5'000), 'x')});
          break;
        default:
          store.write(key, Value{std::string("short")});
          break;
      }
      if (rng.uniform(0, 2) == 0) store.commit(cycle++);
    }
    store.commit(cycle);
    for (const std::string& prefix : prefixes) {
      EXPECT_EQ(encoded_state_bytes(store, prefix),
                encoded_length(store, prefix))
          << "round " << round << ", prefix '" << prefix << "'";
    }
    // A cleared store keeps its interned names and counts none of them.
    store.reset_committed();
    EXPECT_EQ(encoded_state_bytes(store), 0u) << "round " << round;
  }
  // Prefixes that match no key, some keys and every key of one store.
  StableStorage store;
  store.write("a1/x", Value{true});
  store.write("a1/y", Value{std::string(300, 'y')});
  store.write("a2/z", Value{2.5});
  store.commit(3);
  EXPECT_EQ(encoded_state_bytes(store, "zz/"), 0u);
  EXPECT_EQ(encoded_state_bytes(store, "a1/"), encoded_length(store, "a1/"));
  EXPECT_EQ(encoded_state_bytes(store, "a"), encoded_state_bytes(store));
  EXPECT_EQ(encoded_state_bytes(store), encoded_length(store, ""));
}

// --- the one-member replica cohort (the warm standby) ---

TEST(ShipUnit, PollMovesAtMostTheSlotByteBudget) {
  Source source;
  for (Cycle c = 1; c <= 10; ++c) {
    source.commit_frame(c, {{"some/topic/key", std::int64_t(c * 7)}});
  }

  QuorumGroup standby(*source.engine, QuorumOptions{.replicas = 1});
  std::size_t rounds = 0;
  std::size_t largest = 0;
  std::size_t moved = 0;
  while ((moved = standby.pump_member(0, /*budget=*/32)) > 0) {
    ++rounds;
    largest = std::max(largest, moved);
  }
  EXPECT_GT(rounds, 1u);  // the stream really was budget-limited
  EXPECT_LE(largest, 32u);
  EXPECT_LE(standby.stats().bytes_shipped, 32u * standby.stats().slots_polled);
  EXPECT_EQ(standby.replica(0).store().fingerprint(),
            source.store.fingerprint());
  EXPECT_EQ(standby.stats().slots_polled, standby.stats().batches_shipped + 1);
}

TEST(ShipUnit, CatchUpDrainsTheTailRegardlessOfBudgets) {
  Source source;
  for (Cycle c = 1; c <= 4; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  QuorumGroup standby(*source.engine, QuorumOptions{.replicas = 1});
  EXPECT_GT(standby.catch_up_member(0), 0u);
  EXPECT_EQ(standby.catch_up_member(0), 0u);  // idempotent once caught up
  EXPECT_EQ(standby.replica(0).store().fingerprint(),
            source.store.fingerprint());
  EXPECT_FALSE(standby.member_needs_full_copy(0));
}

TEST(ShipUnit, SourceMediaFaultEscalatesToFullCopy) {
  Source source;
  for (Cycle c = 1; c <= 4; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }

  // Flip one durable journal bit past the file header (the shipped range
  // starts at kHeaderSize, so a header flip would be invisible here). The
  // position is the backend's SplitMix64 spread of the seed; walk seeds
  // until one lands in the shipped range — deterministic, no retries at
  // test time.
  const std::uint64_t image_size = source.engine->journal().synced_size();
  const auto splitmix_pos = [&](std::uint64_t seed) {
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    z ^= z >> 31;
    return z % image_size;
  };
  std::uint64_t seed = 0;
  while (splitmix_pos(seed) < kHeaderSize) ++seed;
  source.engine->journal().corrupt_bit(seed);

  QuorumGroup standby(*source.engine, QuorumOptions{.replicas = 1});

  // Every retransmission re-reads the same damaged bytes: after the retry
  // limit the member concludes the journal itself is bad and pauses for a
  // full copy instead of retrying forever.
  for (int i = 0; i < 4 && !standby.member_needs_full_copy(0); ++i) {
    (void)standby.pump_member(0, 64 * 1024);
  }
  EXPECT_TRUE(standby.member_needs_full_copy(0));
  EXPECT_GE(standby.stats().corrupt_batches, 3u);
  EXPECT_EQ(standby.stats().fallbacks, 1u);
  EXPECT_EQ(source.engine->stats().ship_fallbacks, 1u);

  // The owner reseeds past the damage and shipping resumes.
  standby.reseed_member(0, source.store, source.engine->dictionary(),
                        source.engine->journal_generation(),
                        source.engine->journal().synced_size());
  EXPECT_FALSE(standby.member_needs_full_copy(0));
  EXPECT_EQ(standby.catch_up_member(0), 0u);
  EXPECT_EQ(standby.replica(0).store().fingerprint(),
            source.store.fingerprint());
}

// --- the assembled system ---

using support::SimpleApp;
using support::synthetic_app;
using support::synthetic_config;
using support::synthetic_processor;

/// The system_test failover spec: a processor-status factor moves both apps
/// onto processor 1 when processor 0 fails.
core::ReconfigSpec make_failover_spec() {
  core::ReconfigSpec spec;
  for (std::size_t a = 0; a < 2; ++a) {
    core::AppDecl decl;
    decl.id = synthetic_app(a);
    decl.name = "app-" + std::to_string(a);
    decl.specs = {core::FunctionalSpec{support::synthetic_spec(a, 0), "only",
                                       {}, 100, 400}};
    spec.declare_app(std::move(decl));
  }
  const FactorId proc0_status{50};
  spec.declare_factor(env::FactorSpec{proc0_status, "proc0-status", 0, 1, 0});

  core::Configuration split;
  split.id = synthetic_config(0);
  split.name = "split";
  split.assignment = {{synthetic_app(0), support::synthetic_spec(0, 0)},
                      {synthetic_app(1), support::synthetic_spec(1, 0)}};
  split.placement = {{synthetic_app(0), synthetic_processor(0)},
                     {synthetic_app(1), synthetic_processor(1)}};
  spec.declare_config(std::move(split));

  core::Configuration consolidated;
  consolidated.id = synthetic_config(1);
  consolidated.name = "consolidated";
  consolidated.assignment = {{synthetic_app(0), support::synthetic_spec(0, 0)},
                             {synthetic_app(1), support::synthetic_spec(1, 0)}};
  consolidated.placement = {{synthetic_app(0), synthetic_processor(1)},
                            {synthetic_app(1), synthetic_processor(1)}};
  consolidated.safe = true;
  spec.declare_config(std::move(consolidated));

  spec.set_transition_bound(synthetic_config(0), synthetic_config(1), 10);
  spec.set_transition_bound(synthetic_config(1), synthetic_config(0), 10);
  spec.set_choose([proc0_status](ConfigId, const env::EnvState& e) {
    return e.at(proc0_status) == 0 ? synthetic_config(0)
                                   : synthetic_config(1);
  });
  spec.set_initial_config(synthetic_config(0));
  spec.validate();
  return spec;
}

TEST(ShipSystem, WarmRelocationMovesOnlyTheUnshippedTail) {
  const core::ReconfigSpec spec = make_failover_spec();
  core::SystemOptions options;
  options.durable_storage = true;
  options.journal_shipping = true;
  auto make_simple = [](std::size_t a) {
    return std::make_unique<SimpleApp>(synthetic_app(a),
                                       "app-" + std::to_string(a));
  };
  core::System system(spec, options);
  system.add_app(make_simple(0));
  system.add_app(make_simple(1));
  system.bind_processor_factor(synthetic_processor(0), FactorId{50});

  sim::FaultPlan plan;
  plan.fail_processor(5 * 10'000, synthetic_processor(0));
  system.set_fault_plan(std::move(plan));
  system.run(9);

  // The relocation itself happened, onto processor 1 — and it was served
  // from the one-member cohort's replica, not a full-state copy.
  EXPECT_EQ(system.scram().current_config(), synthetic_config(1));
  EXPECT_EQ(system.region_host(synthetic_app(0)), synthetic_processor(1));
  EXPECT_GE(system.stats().region_relocations, 1u);
  EXPECT_GE(system.stats().warm_relocations, 1u);
  EXPECT_EQ(system.stats().full_copy_relocations, 0u);
  EXPECT_GT(system.stats().full_copy_bytes_avoided, 0u);
  EXPECT_GT(system.stats().ship_slots_polled, 0u);
  EXPECT_GT(system.stats().ship_bytes_total, 0u);

  // The moved region carries the pre-failure committed counter.
  const auto& survivor =
      system.processors().processor(synthetic_processor(1));
  const auto count =
      survivor.poll_stable().read_as<std::int64_t>("a1/work_count");
  ASSERT_TRUE(count);
  EXPECT_EQ(count.value(), 5);
}

TEST(ShipSystem, ShipReplicaShadowsEveryDurableProcessor) {
  const core::ReconfigSpec spec = make_failover_spec();
  core::SystemOptions options;
  options.durable_storage = true;
  options.journal_shipping = true;
  core::System system(spec, options);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "app-0"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "app-1"));
  system.run(6);

  ASSERT_TRUE(system.has_ship_channel(synthetic_processor(0)));
  const core::System::ShipCatchUp catch_up =
      system.ship_catch_up(synthetic_processor(0));
  EXPECT_FALSE(catch_up.reseeded);
  const auto& proc = system.processors().processor(synthetic_processor(0));
  EXPECT_EQ(system.ship_replica(synthetic_processor(0)).store().fingerprint(),
            proc.poll_stable().fingerprint());
}

TEST(ShipSystem, ProcessorRepairedBeforeItsFirstSyncKeepsShipping) {
  // Processor 0 fail-stops before its bytes watermark ever synced, so its
  // replica is reseeded from a journal with nothing on the device. After
  // the repair, a compaction must rebase the replica cleanly and shipping
  // must converge on the source again.
  const auto spec = support::make_chain_spec({});
  core::SystemOptions options;
  options.durable_storage = true;
  options.journal_shipping = true;
  options.durability.snapshot_every_epochs = 7;
  options.durability.sync = SyncPolicy::bytes(512);
  core::System system(spec, options);
  for (const core::AppDecl& decl : spec.apps()) {
    system.add_app(std::make_unique<SimpleApp>(decl.id, decl.name));
  }
  const ProcessorId p0 = synthetic_processor(0);
  sim::FaultPlan plan;
  plan.fail_processor(5 * 10'000, p0);
  plan.repair_processor(12 * 10'000, p0);
  system.set_fault_plan(std::move(plan));
  system.run(24);

  EXPECT_GE(system.stats().ship_reseeds, 1u);
  EXPECT_GE(system.quorum_group(p0).stats().rebases, 1u);
  (void)system.ship_catch_up(p0);
  EXPECT_EQ(system.ship_replica(p0).store().fingerprint(),
            system.processors().processor(p0).poll_stable().fingerprint());
}

TEST(ShipSystem, LossyRecoveryTriggersScramReinitWhenEnabled) {
  // An eight-frame sync watermark leaves several commit epochs in the
  // buffered tail; the fail-stop at frame 5 discards them, so recovery is
  // lossy and raises kLossyRecovery. With the journal-aware SCRAM option
  // the signal forces a re-initialization SFTA onto the *current*
  // configuration instead of being silently absorbed.
  auto run_mission = [](bool reinit) {
    auto spec = std::make_shared<core::ReconfigSpec>(
        support::make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.durability.sync = SyncPolicy::frames(8);
    options.scram.reinit_on_lossy_recovery = reinit;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(std::make_unique<SimpleApp>(decl.id, decl.name));
    }
    sim::FaultPlan plan;
    plan.fail_processor(5 * 10'000, synthetic_processor(0));
    plan.repair_processor(6 * 10'000, synthetic_processor(0));
    system->set_fault_plan(std::move(plan));
    system->run(15);
    return std::make_pair(std::move(spec), std::move(system));
  };

  const auto [aware_spec, aware] = run_mission(true);
  EXPECT_GE(aware->stats().lossy_recoveries, 1u);
  EXPECT_GE(aware->scram().stats().lossy_reinits, 1u);
  const auto reconfigs = trace::get_reconfigs(aware->trace());
  ASSERT_GE(reconfigs.size(), 1u);
  EXPECT_EQ(reconfigs[0].from, reconfigs[0].to);  // re-init, not a move

  // Default behaviour unchanged: the trigger is absorbed and service
  // resumes on the rolled-back state without any SFTA.
  const auto [silent_spec, silent] = run_mission(false);
  EXPECT_GE(silent->stats().lossy_recoveries, 1u);
  EXPECT_EQ(silent->scram().stats().lossy_reinits, 0u);
  EXPECT_TRUE(trace::get_reconfigs(silent->trace()).empty());
}

}  // namespace
}  // namespace arfs
