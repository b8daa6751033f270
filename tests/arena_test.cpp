// The memory-mapped result arena's storage contract, end to end.
//
// Contracts under test:
//  * storage::MappedArena — allocate/data/seal/read/release round-trips
//    bytes exactly, file-backed and in-memory alike; a corrupted sealed
//    payload surfaces as a clean arfs::Error on read() (never UB); state
//    misuse (reading open or released regions) is a ContractViolation;
//    oversized chunks get dedicated extents with stable addresses;
//  * storage::scan_arena_file — the offline scanner accounts for every
//    chunk of a written file and pins CRC failures after on-disk bit rot;
//  * sim::auto_stride — exact rounded-√n at the boundaries (0, 1, perfect
//    squares and their neighbours);
//  * FleetRunner::materialize / ArenaCursor — arena-backed rows fold
//    bit-identically to the in-RAM map() at every (threads, shards) point;
//  * analysis::estimate_dependability_evidence — arena-backed evidence
//    reproduces the in-RAM estimate and digest exactly;
//  * support::run_fleet_missions — the pooled path with arena-backed
//    evidence keeps one digest with the no-arena oracle.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arfs/analysis/dependability.hpp"
#include "arfs/common/check.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/storage/arena.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::support {
namespace {

/// A scratch path in the build tree; removed on destruction.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) : path(name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

TEST(AutoStride, ExactAtPerfectSquaresAndNeighbours) {
  // Degenerate inputs clamp to 1 — a stride of 0 would divide by zero.
  EXPECT_EQ(sim::auto_stride(0), 1u);
  EXPECT_EQ(sim::auto_stride(1), 1u);
  for (const Cycle k : {2u, 3u, 5u, 16u, 100u, 1000u}) {
    const Cycle sq = k * k;
    // k² − 1 is 2k−2 above (k−1)² but only 1 below k² → rounds up to k;
    // k² + 1 is 1 above k² → rounds down to k. All three agree.
    EXPECT_EQ(sim::auto_stride(sq - 1), k) << "n = " << sq - 1;
    EXPECT_EQ(sim::auto_stride(sq), k) << "n = " << sq;
    EXPECT_EQ(sim::auto_stride(sq + 1), k) << "n = " << sq + 1;
  }
  // Midpoints: the stride minimizing |n − s²| wins, ties round down.
  EXPECT_EQ(sim::auto_stride(6), 2u);   // 6-4=2 <= 9-6=3
  EXPECT_EQ(sim::auto_stride(7), 3u);   // 7-4=3 >  9-7=2
}

/// Byte round-trip through every region state, for both backends.
void expect_roundtrip(const std::string& path) {
  storage::ArenaOptions options;
  options.path = path;
  options.slab_bytes = 1u << 16;
  storage::MappedArena arena(options);
  EXPECT_EQ(arena.file_backed(), !path.empty());

  // Three regions with distinct sizes and patterns, including size 0.
  const std::vector<std::size_t> sizes = {1, 4096, 0, 77};
  std::vector<storage::MappedArena::RegionId> ids;
  for (std::size_t r = 0; r < sizes.size(); ++r) {
    const storage::MappedArena::RegionId id = arena.allocate(sizes[r]);
    std::uint8_t* p = arena.data(id);
    for (std::size_t i = 0; i < sizes[r]; ++i) {
      p[i] = static_cast<std::uint8_t>(r * 131 + i);
    }
    ids.push_back(id);
  }
  // Reading an open region is a contract violation, not garbage bytes.
  EXPECT_THROW((void)arena.read(ids[0]), ContractViolation);
  for (const storage::MappedArena::RegionId id : ids) arena.seal(id);

  for (std::size_t r = 0; r < sizes.size(); ++r) {
    std::size_t got_bytes = 0;
    const std::uint8_t* p = arena.read(ids[r], &got_bytes);
    ASSERT_EQ(got_bytes, sizes[r]);
    EXPECT_EQ(arena.region_bytes(ids[r]), sizes[r]);
    for (std::size_t i = 0; i < sizes[r]; ++i) {
      ASSERT_EQ(p[i], static_cast<std::uint8_t>(r * 131 + i))
          << "region " << r << " byte " << i;
    }
  }

  arena.release(ids[1]);
  EXPECT_THROW((void)arena.read(ids[1]), ContractViolation);   // dead id
  EXPECT_THROW(arena.release(ids[1]), ContractViolation);      // double free
  EXPECT_NO_THROW((void)arena.read(ids[3]));  // others unaffected

  const storage::MappedArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.regions_allocated, sizes.size());
  EXPECT_EQ(stats.regions_sealed, sizes.size());
  EXPECT_EQ(stats.regions_released, 1u);
  EXPECT_EQ(stats.payload_bytes, 1u + 4096u + 0u + 77u);
  EXPECT_GE(stats.crc_checks, sizes.size());
}

TEST(MappedArena, RoundTripsBytesFileBacked) {
  TempFile tmp("arena_test_roundtrip.arena");
  expect_roundtrip(tmp.path);
}

TEST(MappedArena, RoundTripsBytesInMemory) { expect_roundtrip(""); }

/// A corrupted sealed payload must surface as a clean arfs::Error from
/// read() — the CRC guard turns silent bit rot into a diagnosable failure.
void expect_corruption_detected(const std::string& path) {
  storage::ArenaOptions options;
  options.path = path;
  storage::MappedArena arena(options);
  const storage::MappedArena::RegionId id = arena.allocate(256);
  std::uint8_t* p = arena.data(id);
  for (std::size_t i = 0; i < 256; ++i) p[i] = static_cast<std::uint8_t>(i);
  arena.seal(id);
  EXPECT_NO_THROW((void)arena.read(id));
  p[100] ^= 0x40;  // one flipped bit, simulating storage corruption
  EXPECT_THROW((void)arena.read(id), Error);
  p[100] ^= 0x40;  // restored: reads verify again
  EXPECT_NO_THROW((void)arena.read(id));
}

TEST(MappedArena, CrcCatchesCorruptionFileBacked) {
  TempFile tmp("arena_test_corrupt.arena");
  expect_corruption_detected(tmp.path);
}

TEST(MappedArena, CrcCatchesCorruptionInMemory) {
  expect_corruption_detected("");
}

TEST(MappedArena, OversizedChunksGetDedicatedExtentsWithStableAddresses) {
  storage::ArenaOptions options;
  options.slab_bytes = 4096;  // tiny slabs force growth
  storage::MappedArena arena(options);
  // A payload far beyond one slab must still be a single contiguous chunk.
  const std::size_t big = 10 * 4096 + 123;
  const storage::MappedArena::RegionId small_id = arena.allocate(64);
  std::uint8_t* small_p = arena.data(small_id);
  const storage::MappedArena::RegionId big_id = arena.allocate(big);
  std::uint8_t* big_p = arena.data(big_id);
  std::memset(small_p, 0xAB, 64);
  for (std::size_t i = 0; i < big; ++i) {
    big_p[i] = static_cast<std::uint8_t>(i * 7);
  }
  // Growth must never remap: the small region's pointer stays valid.
  EXPECT_EQ(arena.data(small_id), small_p);
  arena.seal(small_id);
  arena.seal(big_id);
  std::size_t bytes = 0;
  const std::uint8_t* back = arena.read(big_id, &bytes);
  ASSERT_EQ(bytes, big);
  for (std::size_t i = 0; i < big; i += 997) {
    ASSERT_EQ(back[i], static_cast<std::uint8_t>(i * 7)) << "byte " << i;
  }
  EXPECT_GE(arena.stats().extents, 2u);
}

TEST(ArenaScan, AccountsForEveryChunkAndPinsOnDiskBitRot) {
  TempFile tmp("arena_test_scan.arena");
  {
    storage::ArenaOptions options;
    options.path = tmp.path;
    options.slab_bytes = 1u << 16;
    storage::MappedArena arena(options);
    for (int r = 0; r < 3; ++r) {
      const storage::MappedArena::RegionId id = arena.allocate(100);
      std::memset(arena.data(id), 0x11 * (r + 1), 100);
      arena.seal(id);
    }
    const storage::MappedArena::RegionId open_id = arena.allocate(8);
    std::memset(arena.data(open_id), 0, 8);
    arena.sync();
  }  // destructor flushes and closes the file

  storage::ArenaScan scan = storage::scan_arena_file(tmp.path);
  EXPECT_TRUE(scan.ok) << scan.error;
  EXPECT_EQ(scan.chunks, 4u);
  EXPECT_EQ(scan.sealed, 3u);
  EXPECT_EQ(scan.open, 1u);
  EXPECT_EQ(scan.crc_failures, 0u);
  EXPECT_EQ(scan.payload_bytes, 3u * 100u + 8u);

  // Flip one payload byte of the first sealed chunk on disk: file header
  // (24 B) + chunk header (24 B) puts the first payload byte at offset 48.
  {
    std::fstream f(tmp.path,
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(48);
    char b = 0;
    f.get(b);
    f.seekp(48);
    f.put(static_cast<char>(b ^ 0x01));
  }
  scan = storage::scan_arena_file(tmp.path);
  EXPECT_FALSE(scan.ok);
  EXPECT_EQ(scan.crc_failures, 1u);
  EXPECT_EQ(scan.sealed, 3u);  // structure still parses end to end
}

TEST(FleetRunner, MaterializeFoldsBitIdenticalToInRamMapEverywhere) {
  const std::size_t samples = 10 * 64 + 17;  // partial tail chunk
  const std::uint64_t base_seed = 99;
  const std::function<std::uint64_t(const sim::FleetSample&)> fn =
      [](const sim::FleetSample& s) {
        return (s.seed ^ s.index) * 0x100000001B3ULL;
      };
  const auto fold = [](const std::uint64_t* rows, std::size_t n,
                       std::uint64_t h) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= rows[i];
      h *= 0x100000001B3ULL;
    }
    return h;
  };

  // In-RAM oracle: the serial loop in global row order — seeds are a
  // function of the global index alone, so this is the reference fold.
  std::uint64_t oracle = 0xCBF29CE484222325ULL;
  for (std::size_t i = 0; i < samples; ++i) {
    const std::uint64_t row =
        fn(sim::FleetSample{i, sim::job_seed(base_seed, i), 0});
    oracle = fold(&row, 1, oracle);
  }

  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t shards : {1u, 3u, 16u}) {
      for (const bool file_backed : {false, true}) {
        TempFile tmp(file_backed ? "arena_test_mat.arena" : "");
        storage::ArenaOptions arena_options;
        arena_options.path = tmp.path;
        arena_options.slab_bytes = 1u << 16;
        storage::MappedArena arena(arena_options);

        sim::FleetOptions options;
        options.threads = threads;
        options.shards = shards;
        options.chunk = 64;
        sim::FleetRunner fleet(options);
        sim::ArenaCursor<std::uint64_t> cursor =
            fleet.materialize<std::uint64_t>(samples, base_seed, fn, arena);
        ASSERT_EQ(cursor.size(), samples);

        std::uint64_t got = 0xCBF29CE484222325ULL;
        std::size_t rows_seen = 0, expect_first = 0;
        cursor.for_each_chunk([&](const std::uint64_t* rows, std::size_t n,
                                  std::size_t first) {
          EXPECT_EQ(first, expect_first);  // global chunk order
          expect_first += 64;
          rows_seen += n;
          got = fold(rows, n, got);
        });
        EXPECT_EQ(rows_seen, samples);
        EXPECT_EQ(got, oracle)
            << "threads=" << threads << " shards=" << shards
            << " file_backed=" << file_backed;
        // The cursor released every chunk as it went.
        EXPECT_EQ(arena.stats().regions_released,
                  arena.stats().regions_sealed);
        EXPECT_THROW(cursor.for_each_chunk([](const std::uint64_t*,
                                              std::size_t, std::size_t) {}),
                     ContractViolation);  // one-shot
      }
    }
  }
}

TEST(Dependability, ArenaEvidenceReproducesInRamEstimateAndDigest) {
  const analysis::DesignPair pair = analysis::section51_designs(4, 2, 2);
  analysis::MissionParams mission;
  mission.mission_hours = 10.0;
  mission.failure_rate_per_hour = 0.05;
  mission.trials = 3'000;  // multiple chunks, partial tail

  sim::FleetOptions serial_options;
  serial_options.threads = 1;
  serial_options.shards = 1;
  sim::FleetRunner serial(serial_options);
  Rng oracle_rng(7);
  const analysis::EvidenceSweep oracle = analysis::
      estimate_dependability_evidence(pair.reconfig, mission, oracle_rng,
                                      serial);
  EXPECT_FALSE(oracle.arena_backed);
  ASSERT_EQ(oracle.rows, 3'000u);

  TempFile tmp("arena_test_evidence.arena");
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t shards : {1u, 4u}) {
      storage::ArenaOptions arena_options;
      arena_options.path = tmp.path;
      storage::MappedArena arena(arena_options);
      sim::FleetOptions options;
      options.threads = threads;
      options.shards = shards;
      options.arena = &arena;
      sim::FleetRunner fleet(options);
      Rng rng(7);
      const analysis::EvidenceSweep got = analysis::
          estimate_dependability_evidence(pair.reconfig, mission, rng,
                                          fleet);
      EXPECT_TRUE(got.arena_backed);
      EXPECT_EQ(got.rows, oracle.rows);
      EXPECT_EQ(got.evidence_digest, oracle.evidence_digest)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(got.estimate.digest(), oracle.estimate.digest());
      EXPECT_EQ(got.estimate.p_loss, oracle.estimate.p_loss);
    }
  }
}

/// Chain-spec mission factory (the fleet tests' durable chain mission).
MissionFactory chain_factory() {
  return [] {
    auto spec = std::make_shared<core::ReconfigSpec>(make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs = 7;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(std::make_unique<SimpleApp>(decl.id, decl.name));
    }
    CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

PlanFactory chain_plans(Cycle warmup, Cycle frames) {
  const core::ReconfigSpec spec = make_chain_spec({});
  EnvPlanParams params;
  params.factors = spec.factors().factors();
  params.changes = 3;
  params.first_frame = warmup;
  params.frames = frames;
  params.frame_length = 10'000;
  return make_env_plan_factory(std::move(params));
}

TEST(FleetMissions, ArenaBackedPoolKeepsOneDigestWithTheNoArenaOracle) {
  const MissionFactory factory = chain_factory();
  FleetMissionOptions options;
  options.samples = 18;
  options.frames = 4;
  options.warmup_frames = 6;
  options.base_seed = 11;
  const PlanFactory plans =
      chain_plans(options.warmup_frames, options.frames);

  // Oracle: pooled, no arena, 1 thread / 1 shard.
  sim::FleetOptions serial_options;
  serial_options.threads = 1;
  serial_options.shards = 1;
  serial_options.chunk = 4;
  sim::FleetRunner serial(serial_options);
  options.pool_systems = true;
  const FleetMissionReport oracle =
      run_fleet_missions(factory, plans, options, serial);
  ASSERT_NE(oracle.digest, 0u);
  EXPECT_FALSE(oracle.arena_backed);

  TempFile tmp("arena_test_pool.arena");
  for (const std::size_t threads : {2u, 4u}) {
    storage::ArenaOptions arena_options;
    arena_options.path = tmp.path;
    storage::MappedArena arena(arena_options);
    sim::FleetOptions fleet_options;
    fleet_options.threads = threads;
    fleet_options.shards = 2;
    fleet_options.chunk = 4;
    fleet_options.arena = &arena;
    sim::FleetRunner fleet(fleet_options);
    const FleetMissionReport got =
        run_fleet_missions(factory, plans, options, fleet);
    EXPECT_EQ(got.digest, oracle.digest) << "threads=" << threads;
    EXPECT_EQ(got.fault_events, oracle.fault_events);
    EXPECT_EQ(got.frames_run, oracle.frames_run);
    // The arena evidence stream round-trips the same digest.
    EXPECT_TRUE(got.arena_backed);
    EXPECT_EQ(got.evidence_rows, options.samples);
    EXPECT_TRUE(got.evidence_matches);
    EXPECT_EQ(got.evidence_digest, got.digest);
  }
}

}  // namespace
}  // namespace arfs::support
