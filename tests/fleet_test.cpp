// The fleet engine's determinism contract, end to end.
//
// Contracts under test:
//  * sim::auto_stride and ShardPlan — the explicit sharding info: balanced
//    contiguous chunk ranges, exact inverses, clamped auto-tune;
//  * FleetRunner::reduce / map are bit-identical to the serial chunk loop
//    at every (threads, shards) point — sharding moves accumulator
//    locality, never results;
//  * analysis::estimate_dependability on the fleet path equals the
//    BatchRunner oracle exactly (all six fields and the digest) at every
//    (threads, shards) point;
//  * analysis::check_coverage / certify on the fleet path reproduce the
//    serial reports;
//  * support::run_fleet_missions — chain and §7 avionics missions — has one
//    digest across {threads} × {shards} × {pooled, construct-per-sample},
//    equal to the 1-thread/1-shard/no-pool serial oracle;
//  * PooledMission::reset() rewinds exactly: however far the mission ran
//    on, it lands on a fresh build's state after the warm-up;
//  * a SystemPool keeps one warm image: a mission built by restoring it
//    digests like one warmed by replay (chain and UAV missions), every
//    mission of a pool resets from it, and concurrent first leases
//    publish one image and reproduce the serial oracle.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "arfs/analysis/certify.hpp"
#include "arfs/analysis/coverage.hpp"
#include "arfs/analysis/dependability.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/sweep.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::support {
namespace {

TEST(AutoStride, RoundedIntegerSquareRoot) {
  EXPECT_EQ(sim::auto_stride(0), 1u);
  EXPECT_EQ(sim::auto_stride(1), 1u);
  EXPECT_EQ(sim::auto_stride(2), 1u);
  EXPECT_EQ(sim::auto_stride(3), 2u);  // 3-1=2 > 4-3=1 → round up
  EXPECT_EQ(sim::auto_stride(4), 2u);
  EXPECT_EQ(sim::auto_stride(20), 4u);   // 20-16=4 <= 25-20=5
  EXPECT_EQ(sim::auto_stride(24), 5u);   // 24-16=8 > 25-24=1
  EXPECT_EQ(sim::auto_stride(100), 10u);
  EXPECT_EQ(sim::auto_stride(10'000), 100u);
}

TEST(ShardPlan, PartitionsChunksContiguouslyAndBalanced) {
  // 10'000 samples at chunk 1024 → 10 chunks; explicit 3 shards.
  const sim::ShardPlan p = sim::ShardPlan::make(10'000, 1024, 3);
  EXPECT_EQ(p.samples(), 10'000u);
  EXPECT_EQ(p.chunk(), 1024u);
  EXPECT_EQ(p.chunks(), 10u);
  EXPECT_EQ(p.shards(), 3u);

  // Shard ranges tile [0, chunks) in order with sizes differing by <= 1,
  // and shard_of_chunk is the exact inverse.
  std::size_t next = 0;
  std::size_t min_size = p.chunks(), max_size = 0;
  for (std::size_t s = 0; s < p.shards(); ++s) {
    const sim::ShardPlan::Range r = p.chunks_of_shard(s);
    EXPECT_EQ(r.first, next);
    EXPECT_GT(r.size(), 0u);
    min_size = std::min(min_size, r.size());
    max_size = std::max(max_size, r.size());
    for (std::size_t c = r.first; c < r.end; ++c) {
      EXPECT_EQ(p.shard_of_chunk(c), s);
    }
    next = r.end;
  }
  EXPECT_EQ(next, p.chunks());
  EXPECT_LE(max_size - min_size, 1u);

  // Sample ranges: full chunks except the last (10'000 = 9·1024 + 784).
  EXPECT_EQ(p.samples_of_chunk(0).first, 0u);
  EXPECT_EQ(p.samples_of_chunk(0).size(), 1024u);
  EXPECT_EQ(p.samples_of_chunk(9).end, 10'000u);
  EXPECT_EQ(p.samples_of_chunk(9).size(), 10'000u - 9u * 1024u);
}

TEST(ShardPlan, ClampsShardRequestAndAutoTunes) {
  // Never more shards than chunks...
  EXPECT_EQ(sim::ShardPlan::make(4 * 1024, 1024, 50).shards(), 4u);
  // ...never zero, even for an empty run...
  EXPECT_EQ(sim::ShardPlan::make(0, 1024, 0).shards(), 1u);
  EXPECT_EQ(sim::ShardPlan::make(0, 1024, 0).chunks(), 0u);
  // ...and 0 auto-tunes to ~√chunks (100 chunks → 10 shards).
  EXPECT_EQ(sim::ShardPlan::make(100 * 1024, 1024, 0).shards(), 10u);
}

/// reduce() must equal the serial chunk loop bit for bit at every
/// (threads, shards) point — including a partial final chunk.
TEST(FleetRunner, ReduceMatchesSerialChunkLoopAtAnyThreadAndShardCount) {
  struct Acc {
    double sum = 0.0;
    std::uint64_t mix = 0xCBF29CE484222325ULL;
  };
  const std::size_t samples = 10 * 64 + 17;  // chunk 64 → partial tail
  const std::uint64_t base_seed = 99;
  const auto consume = [](const sim::FleetSample& s, Acc& a) {
    a.sum += 1.0 / static_cast<double>((s.seed % 1'000) + 1);
    a.mix ^= s.seed;
    a.mix *= 0x100000001B3ULL;
  };
  const auto fold = [](Acc& into, Acc& part) {
    into.sum += part.sum;
    into.mix ^= part.mix;
    into.mix *= 0x100000001B3ULL;
  };

  // Serial oracle: the documented loop, one chunk at a time in order.
  Acc oracle;
  for (std::size_t first = 0; first < samples; first += 64) {
    Acc chunk;
    const std::size_t end = std::min(first + 64, samples);
    for (std::size_t i = first; i < end; ++i) {
      consume(sim::FleetSample{i, sim::job_seed(base_seed, i), 0}, chunk);
    }
    fold(oracle, chunk);
  }

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shards : {1u, 4u, 16u}) {
      sim::FleetOptions options;
      options.threads = threads;
      options.shards = shards;
      options.chunk = 64;
      sim::FleetRunner fleet(options);
      const Acc got = fleet.reduce<Acc>(samples, base_seed, consume, fold);
      EXPECT_EQ(got.sum, oracle.sum)
          << "threads=" << threads << " shards=" << shards;
      EXPECT_EQ(got.mix, oracle.mix)
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

/// map() materializes job results in job order regardless of sharding.
TEST(FleetRunner, MapPreservesJobOrder) {
  for (const std::size_t shards : {1u, 3u, 16u}) {
    sim::FleetOptions options;
    options.threads = 4;
    options.shards = shards;
    sim::FleetRunner fleet(options);
    const std::vector<std::uint64_t> out = fleet.map<std::uint64_t>(
        23, /*base_seed=*/5,
        [](const sim::FleetSample& s) { return s.seed ^ s.index; });
    ASSERT_EQ(out.size(), 23u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], sim::job_seed(5, i) ^ i) << "job " << i;
    }
  }
}

TEST(Dependability, FleetEstimateEqualsBatchOracleAtEveryThreadShardPoint) {
  const analysis::DesignPair pair = analysis::section51_designs(4, 2, 2);
  analysis::MissionParams mission;
  mission.mission_hours = 10.0;
  mission.failure_rate_per_hour = 0.05;
  mission.trials = 5'000;  // ~5 chunks at kFleetChunk, partial tail

  Rng oracle_rng(7);
  sim::BatchRunner serial{sim::BatchOptions{1, 0}};
  const analysis::DependabilityEstimate oracle =
      analysis::estimate_dependability(pair.reconfig, mission, oracle_rng,
                                       serial);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shards : {1u, 4u, 16u}) {
      sim::FleetOptions options;
      options.threads = threads;
      options.shards = shards;
      sim::FleetRunner fleet(options);
      Rng rng(7);  // same caller seed → same base_seed
      const analysis::DependabilityEstimate got =
          analysis::estimate_dependability(pair.reconfig, mission, rng,
                                           fleet);
      // Exact equality, field by field — not near-equality: the fleet path
      // must reproduce the oracle's floating-point addition sequence.
      EXPECT_EQ(got.p_full_whole_mission, oracle.p_full_whole_mission);
      EXPECT_EQ(got.p_safe_whole_mission, oracle.p_safe_whole_mission);
      EXPECT_EQ(got.p_loss, oracle.p_loss);
      EXPECT_EQ(got.full_service_fraction, oracle.full_service_fraction);
      EXPECT_EQ(got.safe_or_better_fraction, oracle.safe_or_better_fraction);
      EXPECT_EQ(got.mean_failures, oracle.mean_failures);
      EXPECT_EQ(got.digest(), oracle.digest())
          << "threads=" << threads << " shards=" << shards;
    }
  }
}

TEST(Coverage, FleetSweepReproducesSerialReport) {
  const core::ReconfigSpec spec = make_chain_spec({});
  const analysis::CoverageReport serial =
      analysis::check_coverage(spec, /*keep_discharged=*/true);

  sim::FleetOptions options;
  options.threads = 4;
  options.shards = 2;
  sim::FleetRunner fleet(options);
  const analysis::CoverageReport fleet_report =
      analysis::check_coverage(spec, /*keep_discharged=*/true,
                               /*env_limit=*/1u << 20, fleet);

  EXPECT_EQ(fleet_report.generated, serial.generated);
  EXPECT_EQ(fleet_report.discharged, serial.discharged);
  ASSERT_EQ(fleet_report.obligations.size(), serial.obligations.size());
  for (std::size_t i = 0; i < serial.obligations.size(); ++i) {
    EXPECT_EQ(fleet_report.obligations[i].description,
              serial.obligations[i].description);
    EXPECT_EQ(fleet_report.obligations[i].discharged,
              serial.obligations[i].discharged);
  }
}

TEST(Certify, FleetPathRendersIdenticalReport) {
  const core::ReconfigSpec spec = make_chain_spec({});
  const analysis::CertificationReport serial = analysis::certify(spec);

  sim::FleetOptions fleet_options;
  fleet_options.threads = 4;
  fleet_options.shards = 3;
  sim::FleetRunner fleet(fleet_options);
  analysis::CertifyOptions options;
  options.fleet = &fleet;
  const analysis::CertificationReport via_fleet =
      analysis::certify(spec, options);

  EXPECT_EQ(via_fleet.certified(), serial.certified());
  EXPECT_EQ(analysis::render_json(via_fleet), analysis::render_json(serial));
}

/// Chain-spec mission without a baked fault plan — fleet samples get their
/// plans from the PlanFactory, per seed.
MissionFactory fleet_chain_factory() {
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

/// The paper's §7 avionics mission — autopilot + FCS on the UAV spec — with
/// the factory-baked MissionProfile omitted: in a fleet sweep the
/// environment campaign is the per-sample fault plan.
MissionFactory fleet_uav_factory() {
  return [] {
    struct Bundle {
      core::ReconfigSpec spec;
      avionics::UavPlant plant;
      Bundle(core::ReconfigSpec s, std::uint64_t seed)
          : spec(std::move(s)), plant(seed) {}
    };
    avionics::UavSpecOptions spec_options;
    spec_options.dwell_frames = 10;
    auto bundle = std::make_shared<Bundle>(
        avionics::make_uav_spec(spec_options), 42);

    core::SystemOptions options;
    options.frame_length = 20'000;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs = 16;
    auto system = std::make_unique<core::System>(bundle->spec, options);
    system->add_app(std::make_unique<avionics::AutopilotApp>(bundle->plant));
    system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));

    CrashMission out;
    out.keepalive = bundle;
    out.system = std::move(system);
    return out;
  };
}

PlanFactory env_plans_for(const core::ReconfigSpec& spec, Cycle warmup,
                          Cycle frames, SimDuration frame_length) {
  EnvPlanParams params;
  params.factors = spec.factors().factors();
  params.changes = 3;
  params.first_frame = warmup;
  params.frames = frames;
  params.frame_length = frame_length;
  return make_env_plan_factory(std::move(params));
}

/// One digest across {threads} × {shards} × {pooled, construct}, equal to
/// the 1-thread / 1-shard / no-pool serial oracle.
void expect_fleet_digest_invariant(const MissionFactory& factory,
                                   const PlanFactory& plans,
                                   FleetMissionOptions options,
                                   std::size_t chunk) {
  // Serial oracle: one thread, one shard, construct-per-sample.
  sim::FleetOptions serial_options;
  serial_options.threads = 1;
  serial_options.shards = 1;
  serial_options.chunk = chunk;
  sim::FleetRunner serial(serial_options);
  options.pool_systems = false;
  const FleetMissionReport oracle =
      run_fleet_missions(factory, plans, options, serial);
  ASSERT_NE(oracle.digest, 0u);
  EXPECT_EQ(oracle.samples, options.samples);
  EXPECT_EQ(oracle.systems_constructed, options.samples);
  EXPECT_EQ(oracle.pool_resets, 0u);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    for (const std::size_t shards : {1u, 4u, 16u}) {
      for (const bool pooled : {true, false}) {
        sim::FleetOptions fleet_options;
        fleet_options.threads = threads;
        fleet_options.shards = shards;
        fleet_options.chunk = chunk;
        sim::FleetRunner fleet(fleet_options);
        options.pool_systems = pooled;
        const FleetMissionReport got =
            run_fleet_missions(factory, plans, options, fleet);
        EXPECT_EQ(got.digest, oracle.digest)
            << "threads=" << threads << " shards=" << shards
            << " pooled=" << pooled;
        EXPECT_EQ(got.fault_events, oracle.fault_events);
        EXPECT_EQ(got.reconfigurations, oracle.reconfigurations);
        EXPECT_EQ(got.frames_run, oracle.frames_run);
        if (pooled) {
          EXPECT_EQ(got.pool_resets, options.samples);
          // The pool grows to at most the active lanes, never per sample.
          EXPECT_LE(got.systems_constructed, got.pool_resets);
        } else {
          EXPECT_EQ(got.systems_constructed, options.samples);
        }
      }
    }
  }
}

TEST(FleetMissions, ChainDigestInvariantAcrossThreadsShardsAndPooling) {
  const MissionFactory factory = fleet_chain_factory();
  const core::ReconfigSpec spec = make_chain_spec({});
  FleetMissionOptions options;
  options.samples = 22;
  options.frames = 4;
  options.warmup_frames = 6;
  options.base_seed = 11;
  expect_fleet_digest_invariant(
      factory, env_plans_for(spec, options.warmup_frames, options.frames,
                             10'000),
      options, /*chunk=*/4);
}

TEST(FleetMissions, AvionicsDigestInvariantAcrossThreadsShardsAndPooling) {
  const MissionFactory factory = fleet_uav_factory();
  avionics::UavSpecOptions spec_options;
  spec_options.dwell_frames = 10;
  const core::ReconfigSpec spec = avionics::make_uav_spec(spec_options);
  FleetMissionOptions options;
  options.samples = 6;
  options.frames = 5;
  options.warmup_frames = 4;
  options.base_seed = 3;
  expect_fleet_digest_invariant(
      factory, env_plans_for(spec, options.warmup_frames, options.frames,
                             20'000),
      options, /*chunk=*/2);
}

TEST(FleetMissions, EnvPlanFactoryIsAPureFunctionOfTheSeed) {
  const core::ReconfigSpec spec = make_chain_spec({});
  const PlanFactory plans = env_plans_for(spec, 6, 4, 10'000);
  for (const std::uint64_t seed : {1ull, 42ull, 0xDEADBEEFull}) {
    const sim::FaultPlan a = plans(seed);
    const sim::FaultPlan b = plans(seed);
    ASSERT_EQ(a.events().size(), b.events().size());
    EXPECT_EQ(a.events().size(), 3u);
    for (std::size_t i = 0; i < a.events().size(); ++i) {
      EXPECT_EQ(a.events()[i].when, b.events()[i].when);
      EXPECT_EQ(a.events()[i].new_value, b.events()[i].new_value);
      // Every event lands at or after the warm point — the shared prefix.
      EXPECT_GE(a.events()[i].when, 6 * 10'000);
    }
  }
}

TEST(PooledMission, ResetRewindsExactlyToTheWarmPoint) {
  const MissionFactory factory = fleet_chain_factory();
  PooledMission pooled(factory, /*warmup_frames=*/10);
  CrashMission warm = factory();
  warm.system->run(10);
  EXPECT_EQ(pooled.system().digest(), warm.system->digest());
  // Runs past a snapshot (every 7 epochs) before some of the resets.
  for (const Cycle on : {1u, 5u, 17u}) {
    pooled.system().run(on);
    pooled.reset();
    EXPECT_EQ(pooled.system().digest(), warm.system->digest())
        << on << " frames on";
  }
  EXPECT_EQ(pooled.resets(), 3u);
}

TEST(SystemPool, ReusesIdleMissionsAndCountsConstructions) {
  SystemPool pool(fleet_chain_factory(), /*warmup_frames=*/4);
  {
    SystemPool::Lease a = pool.lease();
    a.mission().reset();
  }
  {
    // The first lease has been returned: this one must reuse it.
    SystemPool::Lease b = pool.lease();
    b.mission().reset();
    // A concurrent lease while b is out forces a second construction.
    SystemPool::Lease c = pool.lease();
    c.mission().reset();
  }
  const SystemPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.leases, 3u);
  EXPECT_EQ(stats.constructions, 2u);
}

/// A mission built by restore from a replay-built one's image digests like
/// it at the warm point, and after a 32-frame sample as constructed and
/// again after a reset.
void expect_restore_built_matches_replay_built(const MissionFactory& factory,
                                               const PlanFactory& plans,
                                               Cycle warmup) {
  PooledMission replayed(factory, warmup);
  PooledMission restored(factory, replayed.warm());
  ASSERT_EQ(restored.warm(), replayed.warm());
  EXPECT_EQ(restored.system().digest(), replayed.system().digest());
  EXPECT_EQ(restored.system().digest(), replayed.warm()->digest());
  const auto fly = [&](std::uint64_t seed) {
    replayed.system().set_fault_plan(plans(seed));
    restored.system().set_fault_plan(plans(seed));
    replayed.system().run(32);
    restored.system().run(32);
    EXPECT_EQ(restored.system().digest(), replayed.system().digest())
        << "seed " << seed;
  };
  fly(5);  // as built
  replayed.reset();
  restored.reset();
  fly(77);
  EXPECT_GT(restored.system().stats().fault_events_applied, 0u);
}

TEST(PooledMission, RestoreBuiltChainMissionMatchesAReplayBuiltOne) {
  const core::ReconfigSpec spec = make_chain_spec({});
  expect_restore_built_matches_replay_built(
      fleet_chain_factory(), env_plans_for(spec, 6, 32, 10'000),
      /*warmup=*/6);
}

TEST(PooledMission, RestoreBuiltUavMissionMatchesAReplayBuiltOne) {
  // The factory keeps the plant in its keepalive; the autopilot carries
  // its state through the checkpoint's domain words.
  avionics::UavSpecOptions spec_options;
  spec_options.dwell_frames = 10;
  const core::ReconfigSpec spec = avionics::make_uav_spec(spec_options);
  expect_restore_built_matches_replay_built(
      fleet_uav_factory(), env_plans_for(spec, 8, 32, 20'000),
      /*warmup=*/8);
}

TEST(SystemPool, EveryMissionResetsFromThePoolsOneImage) {
  SystemPool pool(fleet_chain_factory(), /*warmup_frames=*/6);
  EXPECT_EQ(pool.warm(), nullptr);
  {
    // Four leases out at once: four missions, one warmed by replay.
    std::vector<SystemPool::Lease> leases;
    for (int i = 0; i < 4; ++i) leases.push_back(pool.lease());
    const std::shared_ptr<const core::SystemCheckpoint> image = pool.warm();
    ASSERT_NE(image, nullptr);
    const std::uint64_t warm_digest = image->digest();
    for (SystemPool::Lease& lease : leases) {
      PooledMission& mission = lease.mission();
      EXPECT_EQ(mission.warm(), image);
      EXPECT_EQ(mission.system().digest(), warm_digest);
      mission.system().run(9);
      mission.reset();
      EXPECT_EQ(mission.system().digest(), warm_digest);
    }
  }
  // The pool and its four missions hold the one image.
  EXPECT_EQ(pool.warm().use_count(), 1 + 4 + 1);
  EXPECT_EQ(pool.stats().constructions, 4u);
}

TEST(SystemPool, ConcurrentFirstLeasesPublishOneImage) {
  const MissionFactory factory = fleet_chain_factory();
  const core::ReconfigSpec spec = make_chain_spec({});
  constexpr Cycle kWarmup = 6;
  constexpr Cycle kFrames = 8;
  constexpr std::size_t kMissions = 16;
  const PlanFactory plans = env_plans_for(spec, kWarmup, kFrames, 10'000);

  // Serial oracle: a fresh build replaying the warm-up per mission.
  const std::function<std::uint64_t(const MissionJob&)> construct_fly =
      [&](const MissionJob& job) {
        CrashMission mission = factory();
        mission.system->run(kWarmup);
        mission.system->set_fault_plan(plans(job.seed));
        mission.system->run(kFrames);
        return mission.system->digest();
      };
  const std::vector<std::uint64_t> oracle = run_mission_sweep<std::uint64_t>(
      kMissions, /*base_seed=*/21, construct_fly);

  // Four lanes lease at once; each mission records the image it holds.
  // The pool's first build waits up to 100 ms for a second build to start:
  // a pool that let racing first leases each warm a mission would build
  // them side by side and keep several images. A pool that publishes once
  // starts no other build before the first image exists, so the wait
  // times out and changes nothing else.
  std::mutex gate;
  std::condition_variable gate_moved;
  std::size_t builds_started = 0;
  SystemPool pool(
      [&] {
        std::unique_lock<std::mutex> lock(gate);
        if (++builds_started == 1) {
          gate_moved.wait_for(lock, std::chrono::milliseconds(100),
                              [&] { return builds_started > 1; });
        } else {
          gate_moved.notify_all();
        }
        lock.unlock();
        return factory();
      },
      kWarmup);
  sim::FleetOptions options;
  options.threads = 4;
  sim::FleetRunner fleet(options);
  std::vector<const core::SystemCheckpoint*> images(kMissions, nullptr);
  const std::function<std::uint64_t(const MissionJob&, PooledMission&)>
      pooled_fly = [&](const MissionJob& job, PooledMission& mission) {
        images[job.index] = mission.warm().get();
        mission.system().set_fault_plan(plans(job.seed));
        mission.system().run(kFrames);
        return mission.system().digest();
      };
  const std::vector<std::uint64_t> pooled = run_mission_sweep<std::uint64_t>(
      kMissions, /*base_seed=*/21, pooled_fly, pool, fleet);
  EXPECT_EQ(pooled, oracle);
  ASSERT_NE(pool.warm(), nullptr);
  for (std::size_t i = 0; i < kMissions; ++i) {
    EXPECT_EQ(images[i], pool.warm().get()) << "mission " << i;
  }
  EXPECT_GE(pool.stats().constructions, 1u);
  EXPECT_LE(pool.stats().constructions, 4u);
}

TEST(Sweep, FleetOverloadMatchesBatchRunnerSweep) {
  const std::function<std::uint64_t(const MissionJob&)> fly =
      [](const MissionJob& job) { return job.seed * 31 + job.index; };
  const std::vector<std::uint64_t> batch =
      run_mission_sweep<std::uint64_t>(17, /*base_seed=*/9, fly);
  sim::FleetOptions options;
  options.threads = 4;
  options.shards = 3;
  sim::FleetRunner fleet(options);
  const std::vector<std::uint64_t> via_fleet =
      run_mission_sweep<std::uint64_t>(17, /*base_seed=*/9, fly, fleet);
  EXPECT_EQ(via_fleet, batch);
}

TEST(Sweep, PooledOverloadMatchesConstructPerMissionSweep) {
  const core::ReconfigSpec spec = make_chain_spec({});
  const PlanFactory plans = env_plans_for(spec, 0, 4, 10'000);
  const Cycle frames = 4;

  // Self-contained oracle: build a fresh system inside every call.
  const MissionFactory factory = fleet_chain_factory();
  const std::function<std::uint64_t(const MissionJob&)> construct_fly =
      [&](const MissionJob& job) {
        CrashMission mission = factory();
        mission.system->set_fault_plan(plans(job.seed));
        mission.system->run(frames);
        return mission.system->digest();
      };
  const std::vector<std::uint64_t> oracle =
      run_mission_sweep<std::uint64_t>(9, /*base_seed=*/13, construct_fly);

  // Pooled path: leased warm systems, reset per mission (warmup 0 pools the
  // pristine frame-0 state, matching the oracle's fresh builds).
  SystemPool pool(factory, /*warmup_frames=*/0);
  sim::FleetRunner fleet;
  const std::function<std::uint64_t(const MissionJob&, PooledMission&)>
      pooled_fly = [&](const MissionJob& job, PooledMission& mission) {
        mission.system().set_fault_plan(plans(job.seed));
        mission.system().run(frames);
        return mission.system().digest();
      };
  const std::vector<std::uint64_t> pooled = run_mission_sweep<std::uint64_t>(
      9, /*base_seed=*/13, pooled_fly, pool, fleet);
  EXPECT_EQ(pooled, oracle);
  EXPECT_LT(pool.stats().constructions, 9u);
}

}  // namespace
}  // namespace arfs::support
