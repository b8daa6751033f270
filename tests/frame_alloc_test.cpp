// Exact heap-allocation counts of the steady-state frame.
//
// This executable replaces the global allocation operators with a
// thread-local counter (the same scheme perfbench uses), so every check
// counts exactly the allocations its own thread makes between two reads —
// no timing, no noise. Unless a check says otherwise, it starts after a
// 16-frame warm-up and runs frames with no fault or environment events:
//  * a 32-app chain frame with record_trace off allocates nothing;
//  * with the trace on, a frame writes its row in place into the trace's
//    flat vectors, so only their amortized growth allocates;
//  * the fleet op loop (rewind, a 4-change campaign, 64 traced frames)
//    allocates nothing in its frames once a first pass sized the trace,
//    and checking SP1–SP4 on each op's trace makes exactly the recorded
//    number of allocations (the verdict vector, sized once);
//  * a freshly built durable, journal-shipping UAV mission (the crash
//    sweep's shape, trace on) makes exactly the recorded number of
//    allocations over its first 512 frames, under one per frame, and a
//    fresh one-thread warm-start sweep of its 512 crash points makes
//    exactly the recorded number outside the mission factory;
//  * publishing a frame record on the shared-memory ring or the socket
//    stream allocates nothing;
//  * on a warm serve::SimServer, opening a heap-ring session makes exactly
//    the recorded number of allocations (its fault plan and the client's
//    RingSource; a fresh ring too when the slot's last client still holds
//    its ring), and its rounds (pump, client polls, drain, retire) make
//    none, across reopens into reused slots;
//  * rewinding the warm system to a checkpoint allocates nothing;
//  * Expected<T>::value() on a held value allocates nothing;
//  * after one warm-up digest, System::digest() allocates nothing on a
//    volatile 32-app chain (trace on and off), a durable 2-app chain and
//    the same chain shipping to a 3-member quorum cohort;
//  * a frame that consumes one environment-change event makes exactly the
//    recorded number of allocations;
//  * the 32-app chain on durable storage (frames(4) group commit, a
//    snapshot every 16 epochs), alone and shipping to 1- and 3-member
//    cohorts, after a warm-up across three compactions: no frame allocates,
//    snapshot frames included;
//  * restoring a warm durable shipping checkpoint allocates nothing, and
//    one whole crash point on a warm mission (restore, 7 frames, the
//    victim's fail-stop and recovery, the cohort's catch-up) makes exactly
//    the recorded number of allocations;
//  * refreshing a warm durable shipping checkpoint in place
//    (System::checkpoint_into, 1- and 3-member cohorts) allocates nothing,
//    and neither does one rolling crash point (a frame, the refresh, the
//    victim's fail-stop, the catch-up, the restore);
//  * one crash point of the sweep judged on a warm bench (a frame, the
//    support::JudgeBench refresh, the bench victim's fail-stop and the
//    bench cohort's catch-up; 1- and 3-member cohorts) allocates nothing.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include <sys/socket.h>

#include "arfs/avionics/autopilot.hpp"
#include "arfs/avionics/fcs.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/common/expected.hpp"
#include "arfs/core/system.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/props/report.hpp"
#include "arfs/serve/client.hpp"
#include "arfs/serve/frame_ring.hpp"
#include "arfs/serve/server.hpp"
#include "arfs/serve/transport.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  if (size == 0) size = a;
  void* p = nullptr;
  if (::posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, size) ==
      0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace arfs {
namespace {

constexpr Cycle kWarmupFrames = 16;
constexpr Cycle kMeasuredFrames = 64;
/// Allocations of the first 32-app frame that consumes an environment
/// change: the environment's history vector and the frame's reused signal
/// buffer each grow for the first time. The fault plan hands out its
/// events as a span and the monitor's sample is an optional, so neither
/// allocates.
constexpr std::uint64_t kEnvChangeFrameAllocs = 2;

/// The 32-app chain system (4 configurations, recovery edges), warmed up.
struct ChainSystem {
  core::ReconfigSpec spec;
  std::unique_ptr<core::System> system;

  explicit ChainSystem(bool record_trace) {
    support::ChainSpecParams params;
    params.configs = 4;
    params.apps = 32;
    params.with_recovery_edges = true;
    spec = support::make_chain_spec(params);
    core::SystemOptions options;
    options.record_trace = record_trace;
    system = std::make_unique<core::System>(spec, options);
    for (const core::AppDecl& decl : spec.apps()) {
      system->add_app(
          std::make_unique<support::SimpleApp>(decl.id, decl.name));
    }
    system->run(kWarmupFrames);
  }
};

/// Allocations made by `n` frames.
std::uint64_t frame_allocs(core::System& system, Cycle n) {
  const std::uint64_t before = t_allocs;
  system.run(n);
  return t_allocs - before;
}

TEST(FrameAlloc, SteadyFrameWithoutTraceAllocatesNothing) {
  ChainSystem chain(/*record_trace=*/false);
  for (Cycle f = 0; f < kMeasuredFrames; ++f) {
    EXPECT_EQ(frame_allocs(*chain.system, 1), 0u) << "frame " << f;
  }
  EXPECT_EQ(chain.system->scram().stats().triggers_received, 0u);
}

TEST(FrameAlloc, SteadyFrameWithTraceAllocatesOnlyItsRow) {
  // A frame's row goes in place into the trace's flat vectors, so only
  // their amortized growth allocates: a few reallocations in 64 frames.
  ChainSystem chain(/*record_trace=*/true);
  const std::uint64_t total = frame_allocs(*chain.system, kMeasuredFrames);
  const double per_frame =
      static_cast<double>(total) / static_cast<double>(kMeasuredFrames);
  EXPECT_LE(per_frame, 0.1) << total << " allocations in "
                            << kMeasuredFrames << " frames";
  EXPECT_EQ(chain.system->trace().size(), kWarmupFrames + kMeasuredFrames);
}

/// The fleet op loop on the warm 32-app chain: rewind to the warm
/// checkpoint, install a 64-frame campaign of 4 severity changes, run it
/// traced.
struct FleetOps {
  static constexpr std::uint64_t kOps = 4;
  ChainSystem chain{/*record_trace=*/true};
  core::SystemCheckpoint warm = chain.system->checkpoint();
  support::PlanFactory plans = support::make_env_plan_factory([this] {
    support::EnvPlanParams params;
    params.factors = chain.spec.factors().factors();
    params.changes = 4;
    params.first_frame = kWarmupFrames;
    params.frames = kMeasuredFrames;
    return params;
  }());

  /// Runs op `op`; returns the allocations its frames made.
  std::uint64_t run(std::uint64_t op) {
    chain.system->restore(warm);
    chain.system->set_fault_plan(plans(op));
    return frame_allocs(*chain.system, kMeasuredFrames);
  }
};

TEST(FrameAlloc, TracedChainFramesAfterARestoreAllocateNothing) {
  // A first pass over the campaigns sizes the trace's vectors and spare
  // environments (and the environment's history); on the second pass no
  // frame allocates.
  FleetOps fleet;
  std::uint64_t reconfigs = 0;
  for (const bool measured : {false, true}) {
    for (std::uint64_t op = 0; op < FleetOps::kOps; ++op) {
      const std::uint64_t allocs = fleet.run(op);
      if (!measured) continue;
      EXPECT_EQ(allocs, 0u) << "op " << op;
      EXPECT_EQ(fleet.chain.system->trace().size(),
                kWarmupFrames + kMeasuredFrames);
      reconfigs += fleet.chain.system->scram().stats().reconfigs_completed -
                   fleet.warm.scram.stats.reconfigs_completed;
    }
  }
  EXPECT_GT(reconfigs, 0u);
}

/// Allocations of props::check_trace on a fleet op's trace: one for the
/// verdict vector, sized after a counting walk over the trace; the walk
/// builds no list of reconfigurations.
constexpr std::uint64_t kCheckTraceAllocs = 1;

TEST(FrameAlloc, CheckingAFleetOpTraceMakesTheRecordedAllocations) {
  FleetOps fleet;
  for (std::uint64_t op = 0; op < FleetOps::kOps; ++op) {
    (void)fleet.run(op);
    const std::uint64_t before = t_allocs;
    const props::TraceReport report =
        props::check_trace(fleet.chain.system->trace(), fleet.chain.spec);
    EXPECT_EQ(t_allocs - before, kCheckTraceAllocs) << "op " << op;
    EXPECT_GE(report.reconfig_count, 1u) << "op " << op;
    EXPECT_EQ(report.verdicts.size(), report.reconfig_count);
    EXPECT_TRUE(report.all_hold()) << "op " << op;
  }
}

TEST(FrameAlloc, RestoringAWarmCheckpointAllocatesNothing) {
  ChainSystem chain(/*record_trace=*/true);
  const core::SystemCheckpoint warm = chain.system->checkpoint();
  const std::uint64_t digest = chain.system->digest();
  for (int round = 0; round < 3; ++round) {
    chain.system->run(kMeasuredFrames);
    const std::uint64_t before = t_allocs;
    chain.system->restore(warm);
    EXPECT_EQ(t_allocs - before, 0u) << "round " << round;
    EXPECT_EQ(chain.system->digest(), digest);
  }
}

/// Allocations made by one digest of `system`.
std::uint64_t digest_allocs(const core::System& system) {
  const std::uint64_t before = t_allocs;
  const std::uint64_t digest = system.digest();
  const std::uint64_t allocs = t_allocs - before;
  EXPECT_NE(digest, 0u);
  return allocs;
}

/// A 2-app chain on durable storage (`frames(4)` group commit, a snapshot
/// every 16 epochs), optionally shipping to a quorum cohort, after 512
/// frames.
std::unique_ptr<core::System> durable_chain(const core::ReconfigSpec& spec,
                                            std::uint32_t cohort) {
  core::SystemOptions options;
  options.record_trace = false;
  options.durable_storage = true;
  options.durability.sync = storage::durable::SyncPolicy::frames(4);
  options.durability.snapshot_every_epochs = 16;
  if (cohort > 0) {
    options.journal_shipping = true;
    options.quorum_replicas = cohort;
  }
  auto system = std::make_unique<core::System>(spec, options);
  for (const core::AppDecl& decl : spec.apps()) {
    system->add_app(std::make_unique<support::SimpleApp>(decl.id, decl.name));
  }
  system->run(512);
  return system;
}

TEST(FrameAlloc, DigestAllocatesNothing) {
  for (const bool record_trace : {false, true}) {
    ChainSystem chain(record_trace);
    (void)digest_allocs(*chain.system);  // warm-up: grows the word buffer
    EXPECT_EQ(digest_allocs(*chain.system), 0u) << "trace " << record_trace;
    EXPECT_EQ(chain.system->digest(), chain.system->checkpoint().digest());
  }

  const core::ReconfigSpec spec = support::make_chain_spec({});
  for (const std::uint32_t cohort : {0u, 3u}) {
    const std::unique_ptr<core::System> system = durable_chain(spec, cohort);
    (void)digest_allocs(*system);
    EXPECT_EQ(digest_allocs(*system), 0u) << "cohort " << cohort;
    EXPECT_EQ(system->digest(), system->checkpoint().digest());
  }
}

TEST(FrameAlloc, EnvChangeFrameMakesTheRecordedAllocations) {
  ChainSystem chain(/*record_trace=*/false);
  const Cycle next = chain.system->clock().current_frame();
  sim::FaultPlan plan;
  plan.change_environment(
      static_cast<SimTime>(next) * core::SystemOptions{}.frame_length,
      support::kChainSeverityFactor, 1);
  chain.system->set_fault_plan(std::move(plan));
  EXPECT_EQ(frame_allocs(*chain.system, 1), kEnvChangeFrameAllocs);
  EXPECT_EQ(chain.system->stats().fault_events_applied, 1u);
  EXPECT_EQ(chain.system->scram().stats().triggers_received, 1u);
}

/// Frames of durable warm-up: three compactions (a snapshot every 16
/// epochs), so every buffer of the write, shipping and snapshot paths has
/// reached its working size.
constexpr Cycle kDurableWarmupFrames = 64;
/// Allocations of a frame in which an engine takes a snapshot: the image
/// is encoded into the engine's reused buffer, GC walks the device without
/// decoding it and copies into the same buffer, and the compacted key
/// dictionary keeps its strings.
constexpr std::uint64_t kSnapshotFrameAllocs = 0;
/// Allocations of one crash point on the warm durable chain shipping to a
/// one-member cohort: the restore copies into the devices' own buffers,
/// recovery replays without materializing records, and the catch-up ships
/// through the cohort's reused batch.
constexpr std::uint64_t kCrashPointAllocs = 0;

/// The 32-app chain on durable storage, optionally shipping to a cohort of
/// `cohort` members, trace off, after kDurableWarmupFrames frames.
struct DurableChain {
  core::ReconfigSpec spec;
  std::unique_ptr<core::System> system;

  explicit DurableChain(std::uint32_t cohort) {
    support::ChainSpecParams params;
    params.apps = 32;
    spec = support::make_chain_spec(params);
    core::SystemOptions options;
    options.record_trace = false;
    options.durable_storage = true;
    options.durability.sync = storage::durable::SyncPolicy::frames(4);
    options.durability.snapshot_every_epochs = 16;
    if (cohort > 0) {
      options.journal_shipping = true;
      options.quorum_replicas = cohort;
    }
    system = std::make_unique<core::System>(spec, options);
    for (const core::AppDecl& decl : spec.apps()) {
      system->add_app(
          std::make_unique<support::SimpleApp>(decl.id, decl.name));
    }
    system->run(kDurableWarmupFrames);
  }
};

/// Journal generations summed over every engine of `system`, processors'
/// and cohort members' alike. A steady frame bumps it exactly when some
/// engine took a snapshot (compaction starts a new generation).
std::uint64_t journal_generations(core::System& system) {
  std::uint64_t sum = 0;
  for (const ProcessorId p : system.processors().processor_ids()) {
    const failstop::ProcessorView view =
        system.processors().processor(p).view();
    if (view.durability.has_value()) {
      sum += view.durability->journal_generation;
    }
    if (!system.has_ship_channel(p)) continue;
    const auto& group = system.quorum_group(p);
    for (std::uint32_t m = 0; m < group.member_count(); ++m) {
      sum += group.member_view(m).replica.engine->journal_generation;
    }
  }
  return sum;
}

TEST(FrameAlloc, DurableChainFramesAllocateNothing) {
  for (const std::uint32_t cohort : {0u, 1u, 3u}) {
    DurableChain chain(cohort);
    std::size_t snapshot_frames = 0;
    for (Cycle f = 0; f < kMeasuredFrames; ++f) {
      const std::uint64_t generations = journal_generations(*chain.system);
      const std::uint64_t allocs = frame_allocs(*chain.system, 1);
      if (journal_generations(*chain.system) != generations) {
        ++snapshot_frames;
        EXPECT_EQ(allocs, kSnapshotFrameAllocs)
            << "cohort " << cohort << ", snapshot frame " << f;
      } else {
        EXPECT_EQ(allocs, 0u) << "cohort " << cohort << ", frame " << f;
      }
    }
    // 64 frames hold four snapshot epochs of every engine.
    EXPECT_GE(snapshot_frames, 4u) << "cohort " << cohort;
  }
}

TEST(FrameAlloc, RestoringAWarmDurableShippingCheckpointAllocatesNothing) {
  DurableChain chain(/*cohort=*/3);
  const core::SystemCheckpoint warm = chain.system->checkpoint();
  const std::uint64_t digest = chain.system->digest();
  for (int round = 0; round < 3; ++round) {
    chain.system->run(kMeasuredFrames);
    const std::uint64_t before = t_allocs;
    chain.system->restore(warm);
    EXPECT_EQ(t_allocs - before, 0u) << "round " << round;
    EXPECT_EQ(chain.system->digest(), digest);
  }
}

TEST(FrameAlloc, CrashPointOnAWarmMissionMakesTheRecordedAllocations) {
  DurableChain chain(/*cohort=*/1);
  const core::SystemCheckpoint warm = chain.system->checkpoint();
  const ProcessorId victim = support::synthetic_processor(0);
  const auto crash_point = [&] {
    const std::uint64_t before = t_allocs;
    chain.system->restore(warm);
    chain.system->run(7);
    chain.system->processors().processor(victim).fail(
        chain.system->clock().current_frame());
    (void)chain.system->ship_catch_up(victim);
    return t_allocs - before;
  };
  (void)crash_point();  // the first recovery sizes its scratch buffers
  for (int round = 0; round < 3; ++round) {
    EXPECT_EQ(crash_point(), kCrashPointAllocs) << "round " << round;
    EXPECT_TRUE(chain.system->processors().processor(victim).last_recovery()
                    .has_value());
  }
}

TEST(FrameAlloc, RefreshingAWarmDurableShippingCheckpointAllocatesNothing) {
  for (const std::uint32_t cohort : {1u, 3u}) {
    DurableChain chain(cohort);
    core::SystemCheckpoint image = chain.system->checkpoint();
    // A first pass across three compactions grows the image's devices.
    for (Cycle f = 0; f < kDurableWarmupFrames; ++f) {
      chain.system->run(1);
      chain.system->checkpoint_into(image);
    }
    for (Cycle f = 0; f < kMeasuredFrames; ++f) {
      chain.system->run(1);
      const std::uint64_t before = t_allocs;
      chain.system->checkpoint_into(image);
      EXPECT_EQ(t_allocs - before, 0u) << "cohort " << cohort << ", frame "
                                       << f;
    }
    EXPECT_EQ(image.digest(), chain.system->digest()) << "cohort " << cohort;
  }
}

TEST(FrameAlloc, RollingCrashPointOnAWarmMissionAllocatesNothing) {
  // One crash point of the rolling sweep: a frame, the refresh of the
  // interval's checkpoint, the victim's fail-stop and recovery, the
  // cohort's catch-up and the restore of the refreshed checkpoint.
  DurableChain chain(/*cohort=*/1);
  core::SystemCheckpoint rolling = chain.system->checkpoint();
  const ProcessorId victim = support::synthetic_processor(0);
  const auto crash_point = [&] {
    const std::uint64_t before = t_allocs;
    chain.system->run(1);
    chain.system->checkpoint_into(rolling);
    chain.system->processors().processor(victim).fail(
        chain.system->clock().current_frame());
    (void)chain.system->ship_catch_up(victim);
    chain.system->restore(rolling);
    return t_allocs - before;
  };
  // Points across three compactions size the image and recovery scratch.
  for (Cycle f = 0; f < kDurableWarmupFrames; ++f) (void)crash_point();
  for (Cycle f = 0; f < kMeasuredFrames; ++f) {
    EXPECT_EQ(crash_point(), 0u) << "point " << f;
  }
  EXPECT_EQ(chain.system->digest(), rolling.digest());
  EXPECT_TRUE(chain.system->processors().processor(victim).running());
}

TEST(FrameAlloc, BenchCrashPointOnAWarmMissionAllocatesNothing) {
  // One crash point of the sweep: a frame, the refresh of the judge bench
  // from the live victim and cohort, and the verdict on the bench (the
  // bench victim's fail-stop and recovery, the bench cohort's catch-up).
  for (const std::uint32_t cohort : {1u, 3u}) {
    DurableChain chain(cohort);
    const ProcessorId victim_id = support::synthetic_processor(0);
    failstop::Processor& victim =
        chain.system->processors().processor(victim_id);
    storage::durable::quorum::QuorumGroup& group =
        chain.system->quorum_group(victim_id);
    support::JudgeBench bench(victim, &group);
    support::CrashSweepOptions options;
    options.victim = victim_id;
    options.warm_start = true;
    // Index = commit epoch, filled in as the points roll on.
    std::vector<std::uint64_t> fingerprints(
        static_cast<std::size_t>(2 * kDurableWarmupFrames + kMeasuredFrames) +
        1);
    Cycle frame = kDurableWarmupFrames;
    support::CrashPoint point;
    const auto crash_point = [&] {
      const std::uint64_t before = t_allocs;
      chain.system->run(1);
      ++frame;
      fingerprints[static_cast<std::size_t>(frame)] =
          victim.poll_stable().fingerprint();
      bench.refresh(victim, &group);
      point = support::judge_crash_point(bench.victim(), bench.cohort(),
                                         options, frame, fingerprints);
      return t_allocs - before;
    };
    // Points across three compactions size the bench and its scratch.
    for (Cycle f = 0; f < kDurableWarmupFrames; ++f) (void)crash_point();
    for (Cycle f = 0; f < kMeasuredFrames; ++f) {
      EXPECT_EQ(crash_point(), 0u) << "cohort " << cohort << ", point " << f;
      EXPECT_TRUE(point.match && point.replica_match)
          << "cohort " << cohort << ", point " << f;
    }
    EXPECT_TRUE(victim.running());
  }
}

/// Allocations of a freshly built mission shaped like the crash sweep's
/// (the durable, journal-shipping UAV, trace on) over its first 512
/// frames: the first pass grows the engines' buffers, the stores' and
/// interners' name tables, the replica's maps and the trace's vectors once
/// each; no frame allocates a row. A region relocation and a reseed count
/// their bytes from the wire format and copy the region by one walk of the
/// committed store, and the SCRAM checks dependencies in place; listing
/// the keys, encoding each entry into scratch and collecting constraints
/// into a vector made 43 more (437).
constexpr std::uint64_t kFreshUavMissionAllocs = 394;
constexpr Cycle kUavMissionFrames = 512;

/// A mission shaped like perfbench's crash_sweep: the durable UAV
/// (frames(4) group commit, a snapshot every 16 epochs) shipping to its
/// one-member cohort, the power factor cycling Full -> Reduced -> Minimal
/// -> Full every 45 frames.
support::CrashMission uav_sweep_mission() {
  struct Bundle {
    core::ReconfigSpec spec;
    avionics::UavPlant plant{7};
  };
  auto bundle = std::make_shared<Bundle>();
  avionics::UavSpecOptions spec_options;
  spec_options.dwell_frames = 10;
  bundle->spec = avionics::make_uav_spec(spec_options);
  core::SystemOptions options;
  options.frame_length = 20'000;
  options.durable_storage = true;
  options.journal_shipping = true;
  options.durability.snapshot_every_epochs = 16;
  options.durability.sync = storage::durable::SyncPolicy::frames(4);
  auto system = std::make_unique<core::System>(bundle->spec, options);
  system->add_app(std::make_unique<avionics::AutopilotApp>(bundle->plant));
  system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));
  support::MissionProfile profile(options.frame_length);
  std::int64_t level = 0;
  for (Cycle frame = 45; frame < kUavMissionFrames; frame += 45) {
    level = (level + 1) % 3;
    profile.at(frame, avionics::kPowerFactor, level);
  }
  system->set_fault_plan(profile.build());
  support::CrashMission mission;
  mission.keepalive = bundle;
  mission.system = std::move(system);
  return mission;
}

TEST(FrameAlloc, FreshDurableUavMissionMakesTheRecordedAllocations) {
  const support::CrashMission mission = uav_sweep_mission();
  core::System& system = *mission.system;
  const std::uint64_t allocs = frame_allocs(system, kUavMissionFrames);
  EXPECT_EQ(allocs, kFreshUavMissionAllocs);
  EXPECT_LE(static_cast<double>(allocs) /
                static_cast<double>(kUavMissionFrames),
            1.0);
  EXPECT_GE(system.scram().stats().reconfigs_completed, 10u);
  EXPECT_GE(system.stats().region_relocations, 6u);
}

/// Allocations of a fresh one-thread warm-start sweep of that mission's
/// 512 crash points, the factory's own excluded: the mission's first pass
/// (above), the judge bench and its first refreshes and recoveries growing
/// their buffers once, and the point table. The bench copies the live
/// victim and cohort straight in; staging each refresh in a checkpoint
/// image grew two more sets of buffers (67 more). The mission's pass makes
/// 43 fewer since relocations, reseeds and dependency checks stopped
/// building throwaway copies (525 before).
constexpr std::uint64_t kFreshUavSweepAllocs = 482;

TEST(FrameAlloc, FreshUavCrashSweepMakesTheRecordedAllocations) {
  sim::BatchRunner runner(sim::BatchOptions{1, 0});
  std::uint64_t factory_allocs = 0;
  const support::MissionFactory factory = [&factory_allocs] {
    const std::uint64_t before = t_allocs;
    support::CrashMission mission = uav_sweep_mission();
    factory_allocs += t_allocs - before;
    return mission;
  };
  support::CrashSweepOptions options;
  options.frames = kUavMissionFrames;
  options.victim = avionics::kComputer1;
  options.warm_start = true;
  const std::uint64_t before = t_allocs;
  const support::CrashSweepReport report =
      support::run_crash_sweep(factory, options, runner);
  const std::uint64_t allocs = t_allocs - before - factory_allocs;
  EXPECT_TRUE(report.all_match());
  EXPECT_EQ(report.points.size(), kUavMissionFrames);
  EXPECT_EQ(report.missions_built, 1u);
  EXPECT_GT(factory_allocs, 0u);
  EXPECT_EQ(allocs, kFreshUavSweepAllocs);
}

serve::FrameRecord frame_record(std::uint64_t frame) {
  serve::FrameRecord record;
  record.frame = frame;
  record.data0 = frame * 3;
  return record;
}

TEST(FrameAlloc, PublishingAFrameRecordAllocatesNothing) {
  serve::RingOptions ring_options;
  ring_options.slot_count = 8;
  auto ring = serve::FrameRing::create(ring_options);
  serve::FrameRing::Delivered delivered;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t before = t_allocs;
    ASSERT_TRUE(ring->try_publish(frame_record(i), 100 + i));
    EXPECT_EQ(t_allocs - before, 0u) << "ring record " << i;
    ASSERT_EQ(ring->try_consume(delivered), serve::FrameRing::Consume::kRecord);
    EXPECT_EQ(delivered.record.frame, i);
  }

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  serve::StreamTransport transport(fds[0]);
  serve::StreamSource source(fds[1]);
  serve::FrameSource::Item item;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t before = t_allocs;
    ASSERT_TRUE(transport.try_send(frame_record(i), 100 + i));
    // The first send sizes the transport's pending buffer.
    if (i > 0) {
      EXPECT_EQ(t_allocs - before, 0u) << "stream record " << i;
    }
    ASSERT_EQ(source.poll(item), serve::FrameSource::Poll::kRecord);
    EXPECT_EQ(item.record.frame, i);
  }
}

/// Allocations of opening a heap-ring session on a warm SimServer: the
/// fault plan (its event vector, reserved once) and the client's
/// RingSource. The slot, its rewound ring and the report chunk are reused.
constexpr std::uint64_t kWarmServeOpenAllocs = 2;
/// The same open when the slot's previous client still holds its ring:
/// the session gets a fresh ring (the FrameRing, its buffer and the
/// shared_ptr's control block).
constexpr std::uint64_t kHeldRingServeOpenAllocs = kWarmServeOpenAllocs + 3;

/// A SimServer in perfbench serve_stream's shape (2-app chain, 4 warm-up
/// frames, 32-frame sessions, 3 environment changes per plan), serving
/// kConcurrent heap-ring sessions at a time to in-place SessionClients.
/// Construction runs kWarmGenerations generations of sessions. They size
/// the slots, their rings, the report chunk and the pool's idle list, and
/// give every pooled system a mission whose three changes each open a new
/// environment run in its trace, so no later plan grows the trace's
/// environment table (with four generations, one still did).
struct ServeRig {
  static constexpr std::size_t kConcurrent = 4;
  static constexpr int kWarmGenerations = 6;
  static constexpr Cycle kWarmup = 4;
  static constexpr Cycle kSessionFrames = 32;

  std::shared_ptr<core::ReconfigSpec> spec =
      std::make_shared<core::ReconfigSpec>(support::make_chain_spec({}));
  serve::SimServer server{missions(spec), plans(*spec), options()};
  std::array<std::optional<serve::SessionClient>, kConcurrent> clients;
  /// When set, client 0 moves here once it finishes instead of being
  /// dropped: it keeps its ring past its session's retirement.
  std::optional<serve::SessionClient>* keep_first = nullptr;
  std::uint64_t audited = 0;
  std::uint64_t audit_failures = 0;

  ServeRig() {
    for (int g = 0; g < kWarmGenerations; ++g) {
      for (std::size_t c = 0; c < kConcurrent; ++c) (void)open(c);
      while (live() > 0) (void)round();
      (void)server.drain();
    }
  }

  static support::MissionFactory missions(
      std::shared_ptr<core::ReconfigSpec> spec) {
    return [spec] {
      auto system = std::make_unique<core::System>(*spec);
      for (const core::AppDecl& decl : spec->apps()) {
        system->add_app(
            std::make_unique<support::SimpleApp>(decl.id, decl.name));
      }
      support::CrashMission mission;
      mission.keepalive = spec;
      mission.system = std::move(system);
      return mission;
    };
  }

  static support::PlanFactory plans(const core::ReconfigSpec& spec) {
    support::EnvPlanParams params;
    params.factors = spec.factors().factors();
    params.changes = 3;
    params.first_frame = kWarmup;
    params.frames = kSessionFrames;
    return support::make_env_plan_factory(std::move(params));
  }

  static serve::ServeOptions options() {
    serve::ServeOptions options;
    options.max_sessions = kConcurrent;
    options.frame_budget = kSessionFrames;
    options.warmup_frames = kWarmup;
    options.ring_slot_count = 64;  // budget + end: lossless
    return options;
  }

  std::size_t live() const {
    std::size_t n = 0;
    for (const auto& client : clients) n += client.has_value() ? 1 : 0;
    return n;
  }

  /// Opens a session for client `c`; returns the open's allocations.
  std::uint64_t open(std::size_t c) {
    const std::uint64_t before = t_allocs;
    serve::SimServer::Opened opened =
        server.open_session(serve::TransportKind::kShm);
    const std::uint64_t allocs = t_allocs - before;
    clients[c].emplace(std::move(opened.source));
    return allocs;
  }

  /// One serving round, as perfbench runs it: pump, every client polls,
  /// finished clients are audited and dropped, then drain retires their
  /// sessions. Returns the round's allocations; `finished` marks the
  /// clients dropped.
  std::uint64_t round(std::array<bool, kConcurrent>* finished = nullptr) {
    const std::uint64_t before = t_allocs;
    (void)server.pump();
    for (std::size_t c = 0; c < kConcurrent; ++c) {
      const bool done = clients[c].has_value() &&
                        (clients[c]->poll(), clients[c]->done());
      if (finished != nullptr) (*finished)[c] = done;
      if (!done) continue;
      const serve::ClientReport& report = clients[c]->report();
      ++audited;
      if (!report.accounted() || !report.digest_matches()) ++audit_failures;
      if (c == 0 && keep_first != nullptr) {
        keep_first->swap(clients[0]);
        keep_first = nullptr;
      }
      clients[c].reset();
    }
    (void)server.drain();
    return t_allocs - before;
  }
};

TEST(FrameAlloc, OpeningAWarmServeSessionMakesTheRecordedAllocations) {
  ServeRig rig;
  for (std::size_t c = 0; c < ServeRig::kConcurrent; ++c) {
    EXPECT_EQ(rig.open(c), kWarmServeOpenAllocs) << "open " << c;
  }
  // Keep the first client once it finishes: the next session in its slot
  // must get a fresh ring, not the one this client still reads.
  std::optional<serve::SessionClient> kept;
  rig.keep_first = &kept;
  while (rig.live() > 0) (void)rig.round();
  ASSERT_TRUE(kept.has_value());
  // Every slot is reused; exactly one of them needs a fresh ring.
  std::uint64_t reopen_allocs = 0;
  for (std::size_t c = 0; c < ServeRig::kConcurrent; ++c) {
    reopen_allocs += rig.open(c);
  }
  EXPECT_EQ(reopen_allocs,
            (ServeRig::kConcurrent - 1) * kWarmServeOpenAllocs +
                kHeldRingServeOpenAllocs);
  while (rig.live() > 0) {
    (void)rig.round();
    EXPECT_EQ(kept->poll(), 0u);  // the new sessions' records never reach it
  }
  EXPECT_TRUE(kept->report().digest_matches());
  EXPECT_EQ(rig.audit_failures, 0u);
}

TEST(FrameAlloc, WarmServeRoundsAllocateNothing) {
  // Sessions start one round apart and reopen as soon as they finish, so
  // rounds mix production, end records, retirement and fresh sessions in
  // reused slots.
  ServeRig rig;
  constexpr std::uint64_t kSessions = 4 * ServeRig::kConcurrent;
  const std::uint64_t audited_before = rig.audited;
  std::uint64_t opened = 0;
  std::uint64_t rounds = 0;
  std::uint64_t round_allocs = 0;
  std::array<bool, ServeRig::kConcurrent> finished{};
  do {
    if (opened < ServeRig::kConcurrent) {
      EXPECT_EQ(rig.open(opened), kWarmServeOpenAllocs) << "start " << opened;
      ++opened;
    }
    round_allocs += rig.round(&finished);
    ++rounds;
    for (std::size_t c = 0; c < ServeRig::kConcurrent; ++c) {
      if (!finished[c] || opened == kSessions) continue;
      EXPECT_EQ(rig.open(c), kWarmServeOpenAllocs) << "session " << opened;
      ++opened;
    }
  } while (rig.live() > 0);
  EXPECT_EQ(round_allocs, 0u) << "over " << rounds << " rounds";
  EXPECT_EQ(rig.audited - audited_before, kSessions);
  EXPECT_EQ(rig.audit_failures, 0u);
  EXPECT_EQ(rig.server.active_sessions(), 0u);
  EXPECT_LE(rig.server.pool_stats().constructions, ServeRig::kConcurrent);
}

TEST(FrameAlloc, ExpectedValueOnAHeldValueAllocatesNothing) {
  const Expected<int> held = 42;
  Expected<int> mutable_held = 7;
  const std::uint64_t before = t_allocs;
  int sum = 0;
  for (int i = 0; i < 100; ++i) sum += held.value() + mutable_held.value();
  EXPECT_EQ(t_allocs - before, 0u);
  EXPECT_EQ(sum, 4900);
}

}  // namespace
}  // namespace arfs
