// Deterministic whole-system checkpoints and the rolling crash-point sweep
// built on them.
//
// Four contracts under test:
//  * core::SystemCheckpoint round-trips bit-identically — at every frame of
//    a mission, a checkpoint restored into a freshly built system has the
//    live system's digest, and running the restored fork to mission end
//    reproduces the live mission's final digest exactly. The same holds
//    when the checkpoint is restored over a mission that has just run a
//    whole crash point;
//  * System::checkpoint_into refreshes one reused image exactly: at every
//    frame, and from earlier, smaller states (a crashed victim, a killed
//    cohort member), the refreshed image has the fresh checkpoint's digest
//    and restores a fork that follows a fresh run frame by frame. A mission
//    rolling forward through crash points this way tracks the baseline
//    mission exactly. One image restored from several threads at once
//    gives each the serial restore's mission and is left unchanged, and
//    an image owns its spare processors and cohorts (each cohort ships
//    from its own image's engine), so it outlives its system;
//  * a reused support::JudgeBench judges like a fresh one: refreshed at
//    every frame of a mission whose cohort loses, regains and reseeds a
//    member, it holds the fresh bench's victim and cohort state and reaches
//    its verdict, under every io fault. Judging a bench at every frame
//    leaves the mission exactly where an unjudged run stands;
//  * the rolling sweep strategy is digest-identical to the from-scratch
//    oracle (CrashSweepOptions::checkpointing = false) under every sync
//    policy, both io-fault modes, warm-start mode, and any thread count.
// Plus the BENCH_*.json trajectory emitter (bench/bench_main.hpp --json):
// what it writes must parse as valid JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <latch>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/support/bench_json.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::support {
namespace {

using storage::durable::SyncPolicy;

/// The four policies every strategy comparison must pass under.
std::vector<std::pair<std::string, SyncPolicy>> all_policies() {
  return {{"every-commit", SyncPolicy::every_commit()},
          {"bytes(512)", SyncPolicy::bytes(512)},
          {"frames(4)", SyncPolicy::frames(4)},
          {"hybrid(4096,8)", SyncPolicy::hybrid(4096, 8)}};
}

/// Chain-spec mission, identical to crash_sweep_test's: durable processors,
/// one SimpleApp per declared app, optional shipping to a cohort of
/// `replicas` members.
MissionFactory chain_factory(SyncPolicy policy, bool shipping = false,
                             std::uint32_t replicas = 1) {
  return [policy, shipping, replicas] {
    auto spec =
        std::make_shared<core::ReconfigSpec>(make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.journal_shipping = shipping;
    options.quorum_replicas = replicas;
    options.durability.snapshot_every_epochs = 7;
    options.durability.sync = policy;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(
          std::make_unique<SimpleApp>(decl.id, decl.name));
    }
    CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

/// The paper's avionics mission, identical to crash_sweep_test's: autopilot
/// + FCS with the electrical factor driving reconfigurations at frames 10,
/// 25, and 40; optionally shipping to a cohort of `replicas` members.
MissionFactory uav_factory(SyncPolicy policy, bool shipping = false,
                           std::uint32_t replicas = 1) {
  return [policy, shipping, replicas] {
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
    options.journal_shipping = shipping;
    options.quorum_replicas = replicas;
    options.durability.snapshot_every_epochs = 16;
    options.durability.sync = policy;
    auto system = std::make_unique<core::System>(bundle->spec, options);
    system->add_app(
        std::make_unique<avionics::AutopilotApp>(bundle->plant));
    system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));

    MissionProfile mission(options.frame_length);
    mission.at(10, avionics::kPowerFactor, 1)
        .at(25, avionics::kPowerFactor, 2)
        .at(40, avionics::kPowerFactor, 0);
    system->set_fault_plan(mission.build());

    CrashMission out;
    out.keepalive = bundle;
    out.system = std::move(system);
    return out;
  };
}

/// The round-trip contract, checked at every frame of `factory`'s mission:
/// the live digest, the checkpoint's own digest, a restored fork's digest,
/// and the fork's run-to-end digest must all agree with the live mission.
void expect_restore_exact_at_every_frame(const MissionFactory& factory,
                                         Cycle frames) {
  // Reference pass: the live mission's digest and a checkpoint after every
  // frame (index f = state after f frames; 0 = freshly built).
  CrashMission reference = factory();
  ASSERT_NE(reference.system, nullptr);
  std::vector<std::uint64_t> digests;
  std::vector<core::SystemCheckpoint> checkpoints;
  digests.push_back(reference.system->digest());
  checkpoints.push_back(reference.system->checkpoint());
  for (Cycle f = 1; f <= frames; ++f) {
    reference.system->run(1);
    digests.push_back(reference.system->digest());
    checkpoints.push_back(reference.system->checkpoint());
  }

  for (Cycle f = 0; f <= frames; ++f) {
    const std::size_t i = static_cast<std::size_t>(f);
    // The checkpoint hashes to the live system's digest...
    ASSERT_EQ(checkpoints[i].digest(), digests[i]) << "frame " << f;
    // ...a fresh system restored from it is bit-identical...
    CrashMission fork = factory();
    fork.system->restore(checkpoints[i]);
    ASSERT_EQ(fork.system->digest(), digests[i]) << "frame " << f;
    // ...and running the fork to mission end reproduces the live mission's
    // final state exactly — the property the checkpointed sweep rests on.
    fork.system->run(frames - f);
    ASSERT_EQ(fork.system->digest(), digests[frames]) << "frame " << f;
  }

  // A checkpoint is restorable more than once (each restore copies the
  // checkpoint's device images, never consumes them): two forks of the same
  // mid-mission checkpoint agree.
  const std::size_t mid = static_cast<std::size_t>(frames / 2);
  CrashMission fork_a = factory();
  CrashMission fork_b = factory();
  fork_a.system->restore(checkpoints[mid]);
  fork_b.system->restore(checkpoints[mid]);
  fork_a.system->run(frames - frames / 2);
  fork_b.system->run(frames - frames / 2);
  EXPECT_EQ(fork_a.system->digest(), fork_b.system->digest());
  EXPECT_EQ(fork_a.system->digest(), digests[frames]);
}

TEST(SystemCheckpoint, ChainMissionRestoresBitIdenticallyAtEveryFrame) {
  expect_restore_exact_at_every_frame(
      chain_factory(SyncPolicy::frames(4), /*shipping=*/true), 12);
}

TEST(SystemCheckpoint, AvionicsMissionRestoresBitIdenticallyAtEveryFrame) {
  // 45 frames cover all three reconfigurations (frames 10, 25, 40) plus
  // their SFTA phases, so checkpoints are taken mid-reconfiguration too.
  expect_restore_exact_at_every_frame(
      uav_factory(SyncPolicy::hybrid(4096, 8), /*shipping=*/true), 45);
}

/// The steps judge_crash_point takes at crash frame `f`: arms `fault`,
/// fail-stops the victim, kills the cohort leader `quorum_kills` times and
/// catches the cohort up.
void crash_like_the_judge(core::System& system, ProcessorId victim,
                          std::uint32_t quorum_kills,
                          CrashSweepOptions::IoFault fault, Cycle f) {
  failstop::Processor& processor = system.processors().processor(victim);
  storage::durable::JournalBackend& journal =
      processor.durability()->journal();
  switch (fault) {
    case CrashSweepOptions::IoFault::kNone:
      break;
    case CrashSweepOptions::IoFault::kTornWrite:
      journal.tear_on_crash(7);
      break;
    case CrashSweepOptions::IoFault::kBitFlip:
      journal.corrupt_bit(0x9E3779B97F4A7C15ULL * (f + 1));
      break;
  }
  processor.fail(system.clock().current_frame());
  for (std::uint32_t k = 0; k < quorum_kills; ++k) {
    system.fail_quorum_member(victim, *system.quorum_group(victim).leader());
  }
  (void)system.ship_catch_up(victim);
}

/// The interval sweep's precondition: a checkpoint restored over a mission
/// that has just run a whole crash point leaves no trace of that point. At
/// every frame f one reused mission restores checkpoint f, runs up to three
/// residual frames and takes the judge's steps. Then it restores checkpoint
/// f again: the digest must equal the checkpoint's, and running to mission
/// end must reproduce the reference mission's final digest.
void expect_restore_over_crash_exact(const MissionFactory& factory,
                                     Cycle frames, ProcessorId victim,
                                     std::uint32_t quorum_kills,
                                     CrashSweepOptions::IoFault fault) {
  CrashMission reference = factory();
  ASSERT_NE(reference.system, nullptr);
  std::vector<core::SystemCheckpoint> checkpoints;
  checkpoints.push_back(reference.system->checkpoint());
  for (Cycle f = 1; f <= frames; ++f) {
    reference.system->run(1);
    checkpoints.push_back(reference.system->checkpoint());
  }
  const std::uint64_t final_digest = reference.system->digest();

  CrashMission mission = factory();
  core::System& system = *mission.system;
  for (Cycle f = 0; f <= frames; ++f) {
    const auto i = static_cast<std::size_t>(f);
    system.restore(checkpoints[i]);
    system.run(std::min<Cycle>(3, frames - f));
    crash_like_the_judge(system, victim, quorum_kills, fault, f);

    system.restore(checkpoints[i]);
    ASSERT_EQ(system.digest(), checkpoints[i].digest()) << "frame " << f;
    system.run(frames - f);
    ASSERT_EQ(system.digest(), final_digest) << "frame " << f;
  }
}

TEST(SystemCheckpoint, RestoreOverACrashedMissionIsBitIdentical) {
  for (const CrashSweepOptions::IoFault fault :
       {CrashSweepOptions::IoFault::kNone,
        CrashSweepOptions::IoFault::kTornWrite,
        CrashSweepOptions::IoFault::kBitFlip}) {
    SCOPED_TRACE(static_cast<int>(fault));
    // The chain shipping to a 3-member cohort, its leader killed each time.
    expect_restore_over_crash_exact(
        chain_factory(SyncPolicy::frames(4), /*shipping=*/true,
                      /*replicas=*/3),
        16, synthetic_processor(0), /*quorum_kills=*/1, fault);
    // The avionics mission shipping to its one-member cohort, across all
    // three reconfigurations.
    expect_restore_over_crash_exact(
        uav_factory(SyncPolicy::hybrid(4096, 8), /*shipping=*/true), 45,
        avionics::kComputer1, /*quorum_kills=*/0, fault);
  }
}

/// The rolling sweep's precondition: a judged crash point leaves nothing
/// behind in the mission that rolls on from it. One mission rolls forward
/// through every frame the way an interval job does — one frame, a refresh
/// of one reused checkpoint, the judge's steps, a restore — and after each
/// restore, and again one frame later, it must stand exactly where the
/// baseline mission stood at that frame.
void expect_rolling_mission_tracks_baseline(const MissionFactory& factory,
                                            Cycle frames, ProcessorId victim,
                                            std::uint32_t quorum_kills,
                                            CrashSweepOptions::IoFault fault) {
  CrashMission baseline = factory();
  ASSERT_NE(baseline.system, nullptr);
  std::vector<std::uint64_t> digests{baseline.system->digest()};
  for (Cycle f = 1; f <= frames + 1; ++f) {
    baseline.system->run(1);
    digests.push_back(baseline.system->digest());
  }

  CrashMission mission = factory();
  core::System& system = *mission.system;
  core::SystemCheckpoint rolling;
  for (Cycle f = 1; f <= frames; ++f) {
    const auto i = static_cast<std::size_t>(f);
    system.run(1);
    ASSERT_EQ(system.digest(), digests[i]) << "frame " << f;
    system.checkpoint_into(rolling);
    crash_like_the_judge(system, victim, quorum_kills, fault, f);
    system.restore(rolling);
    ASSERT_EQ(system.digest(), digests[i]) << "restored at frame " << f;
  }
  system.run(1);
  EXPECT_EQ(system.digest(), digests.back());
}

TEST(SystemCheckpoint, RollingMissionTracksTheBaselineAfterEveryPoint) {
  for (const CrashSweepOptions::IoFault fault :
       {CrashSweepOptions::IoFault::kNone,
        CrashSweepOptions::IoFault::kTornWrite,
        CrashSweepOptions::IoFault::kBitFlip}) {
    SCOPED_TRACE(static_cast<int>(fault));
    expect_rolling_mission_tracks_baseline(
        chain_factory(SyncPolicy::frames(4), /*shipping=*/true,
                      /*replicas=*/3),
        24, synthetic_processor(0), /*quorum_kills=*/1, fault);
    expect_rolling_mission_tracks_baseline(
        uav_factory(SyncPolicy::frames(4), /*shipping=*/true), 64,
        avionics::kComputer1, /*quorum_kills=*/0, fault);
  }
}

/// Requires every processor's last recovery report to agree field by field
/// between the two systems (the digest does not hash them).
void expect_same_recoveries(core::System& expected, core::System& actual) {
  for (const ProcessorId p : expected.processors().processor_ids()) {
    const auto& want = expected.processors().processor(p).last_recovery();
    const auto& got = actual.processors().processor(p).last_recovery();
    ASSERT_EQ(want.has_value(), got.has_value()) << "processor " << p.value();
    if (!want.has_value()) continue;
    EXPECT_EQ(want->used_snapshot, got->used_snapshot);
    EXPECT_EQ(want->snapshot_epoch, got->snapshot_epoch);
    EXPECT_EQ(want->records_applied, got->records_applied);
    EXPECT_EQ(want->records_skipped, got->records_skipped);
    EXPECT_EQ(want->last_epoch, got->last_epoch);
    EXPECT_EQ(want->journal_truncated, got->journal_truncated);
    EXPECT_EQ(want->valid_bytes, got->valid_bytes);
    EXPECT_EQ(want->note, got->note);
  }
}

/// Frames a restored fork is run on and compared against its source.
constexpr Cycle kFollowFrames = 16;

/// Refreshes the reused image `cp` from `source`, which must then hash like
/// a fresh checkpoint of it, and restores it into `fork`: the fork must
/// match the source's digest and recovery reports, then follow the source
/// frame by frame for kFollowFrames frames (both run on).
void expect_refresh_exact(core::System& source, core::SystemCheckpoint& cp,
                          core::System& fork) {
  source.checkpoint_into(cp);
  const std::uint64_t digest = source.digest();
  ASSERT_EQ(cp.digest(), source.checkpoint().digest());
  ASSERT_EQ(cp.digest(), digest);
  fork.restore(cp);
  ASSERT_EQ(fork.digest(), digest);
  expect_same_recoveries(source, fork);
  for (Cycle f = 1; f <= kFollowFrames; ++f) {
    source.run(1);
    fork.run(1);
    ASSERT_EQ(fork.digest(), source.digest()) << f << " frames on";
  }
}

TEST(SystemCheckpoint, OneImageRefreshedAtEveryFrameRestoresExactly) {
  // The sweep's mission: the durable UAV shipping to a one-member cohort,
  // and to a three-member one; 64 frames cover all three reconfigurations
  // and three snapshot compactions.
  constexpr Cycle kFrames = 64;
  for (const std::uint32_t replicas : {1u, 3u}) {
    SCOPED_TRACE(replicas);
    const MissionFactory factory =
        uav_factory(SyncPolicy::frames(4), /*shipping=*/true, replicas);
    CrashMission reference = factory();
    std::vector<std::uint64_t> digests{reference.system->digest()};
    for (Cycle f = 1; f <= kFrames + kFollowFrames; ++f) {
      reference.system->run(1);
      digests.push_back(reference.system->digest());
    }

    CrashMission live = factory();
    CrashMission fork = factory();
    core::SystemCheckpoint cp;
    for (Cycle f = 0; f <= kFrames; ++f) {
      if (f > 0) live.system->run(1);
      live.system->checkpoint_into(cp);
      const auto i = static_cast<std::size_t>(f);
      ASSERT_EQ(cp.digest(), live.system->checkpoint().digest())
          << "frame " << f;
      ASSERT_EQ(cp.digest(), digests[i]) << "frame " << f;
      fork.system->restore(cp);
      ASSERT_EQ(fork.system->digest(), digests[i]) << "frame " << f;
      for (Cycle k = 1; k <= kFollowFrames; ++k) {
        fork.system->run(1);
        ASSERT_EQ(fork.system->digest(), digests[i + k])
            << "frame " << f << ", " << k << " frames on";
      }
    }
  }
}

TEST(SystemCheckpoint, RefreshFromEarlierSmallerStatesRestoresExactly) {
  // Each refresh starts from an image of a larger state (a longer trace,
  // fuller devices, every cohort member live, no recovery report), so
  // anything the refresh fails to overwrite or shrink shows up.
  const MissionFactory factory =
      uav_factory(SyncPolicy::frames(4), /*shipping=*/true, /*replicas=*/3);
  const ProcessorId victim = avionics::kComputer1;
  CrashMission late = factory();
  late.system->run(64);
  core::SystemCheckpoint cp = late.system->checkpoint();
  CrashMission fork = factory();

  {
    SCOPED_TRACE("crashed victim");
    CrashMission crashed = factory();
    crashed.system->run(20);
    crash_like_the_judge(*crashed.system, victim, /*quorum_kills=*/0,
                         CrashSweepOptions::IoFault::kTornWrite, 20);
    ASSERT_TRUE(crashed.system->processors()
                    .processor(victim)
                    .last_recovery()
                    .has_value());
    expect_refresh_exact(*crashed.system, cp, *fork.system);
  }
  {
    SCOPED_TRACE("back to a recovery-free state");
    expect_refresh_exact(*late.system, cp, *fork.system);
  }
  {
    SCOPED_TRACE("killed cohort member");
    CrashMission killed = factory();
    killed.system->run(12);
    killed.system->fail_quorum_member(
        victim, *killed.system->quorum_group(victim).leader());
    expect_refresh_exact(*killed.system, cp, *fork.system);
  }
}

TEST(SystemCheckpoint, OneImageRestoresIntoFourMissionsAtOnce) {
  // A checkpoint is a read-only value: threads restoring one image at the
  // same time each get the serial restore's mission, and the image is left
  // as it was.
  constexpr Cycle kAt = 64;
  constexpr Cycle kOn = 16;
  constexpr std::size_t kThreads = 4;
  const MissionFactory factory =
      uav_factory(SyncPolicy::frames(4), /*shipping=*/true, /*replicas=*/3);
  CrashMission source = factory();
  source.system->run(kAt);
  const core::SystemCheckpoint cp = source.system->checkpoint();
  const std::uint64_t image_digest = cp.digest();

  CrashMission serial = factory();
  serial.system->restore(cp);
  serial.system->run(kOn);
  const std::uint64_t want = serial.system->digest();

  std::vector<CrashMission> missions;
  for (std::size_t t = 0; t < kThreads; ++t) missions.push_back(factory());
  std::vector<std::uint64_t> got(kThreads, 0);
  std::latch start(static_cast<std::ptrdiff_t>(kThreads));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      missions[t].system->restore(cp);
      missions[t].system->run(kOn);
      got[t] = missions[t].system->digest();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], want) << "thread " << t;
  }
  EXPECT_EQ(cp.digest(), image_digest);
}

TEST(SystemCheckpoint, AnImageOwnsItsSparesAndOutlivesItsSystem) {
  // A checkpoint's processors are spares with engines of their own, and
  // each cohort ships from its spare processor's engine in the same image,
  // never from the live system's, through a refresh and a move alike. So
  // the image keeps its state when its system runs on, and outlives it.
  const MissionFactory factory =
      chain_factory(SyncPolicy::frames(4), /*shipping=*/true, /*replicas=*/3);
  core::SystemCheckpoint refreshed;
  core::SystemCheckpoint moved;
  std::uint64_t want = 0;
  {
    CrashMission source = factory();
    source.system->run(20);
    source.system->checkpoint_into(refreshed);
    moved = source.system->checkpoint();
    want = source.system->digest();
    for (core::SystemCheckpoint* cp : {&refreshed, &moved}) {
      ASSERT_EQ(cp->quorum_channels.size(), cp->processors.size());
      for (auto& [pid, cohort] : cp->quorum_channels) {
        SCOPED_TRACE(pid.value());
        storage::durable::DurabilityEngine* spare =
            cp->processors.at(pid).durability();
        ASSERT_NE(spare, nullptr);
        EXPECT_EQ(&cohort.source(), spare);
        EXPECT_NE(spare, source.system->processors().processor(pid).durability());
      }
    }
    source.system->run(5);
    EXPECT_NE(source.system->digest(), want);
    EXPECT_EQ(refreshed.digest(), want);
  }
  for (const core::SystemCheckpoint* cp : {&refreshed, &moved}) {
    EXPECT_EQ(cp->digest(), want);
    CrashMission fork = factory();
    fork.system->restore(*cp);
    EXPECT_EQ(fork.system->digest(), want);
  }
}

/// Requires two refreshed benches to hold the same victim and cohort: what
/// a verdict reads, and the recovery report and lost epochs no digest
/// hashes.
void expect_same_bench(JudgeBench& got, JudgeBench& want) {
  failstop::Processor& a = got.victim();
  failstop::Processor& b = want.victim();
  EXPECT_EQ(a.running(), b.running());
  EXPECT_EQ(a.poll_stable().fingerprint(), b.poll_stable().fingerprint());
  EXPECT_EQ(a.poll_stable().commit_epochs(), b.poll_stable().commit_epochs());
  EXPECT_EQ(a.lost_epochs(), b.lost_epochs());
  EXPECT_EQ(a.failure_count(), b.failure_count());
  ASSERT_EQ(a.last_recovery().has_value(), b.last_recovery().has_value());
  if (a.last_recovery().has_value()) {
    EXPECT_EQ(a.last_recovery()->last_epoch, b.last_recovery()->last_epoch);
    EXPECT_EQ(a.last_recovery()->journal_truncated,
              b.last_recovery()->journal_truncated);
  }
  storage::durable::DurabilityEngine& ea = *a.durability();
  storage::durable::DurabilityEngine& eb = *b.durability();
  EXPECT_EQ(ea.stats().last_durable_epoch, eb.stats().last_durable_epoch);
  EXPECT_EQ(ea.journal_generation(), eb.journal_generation());
  EXPECT_EQ(ea.journal().size(), eb.journal().size());
  EXPECT_EQ(ea.journal().synced_size(), eb.journal().synced_size());
  EXPECT_EQ(ea.snapshots().size(), eb.snapshots().size());

  const storage::durable::quorum::QuorumGroup& ca = *got.cohort();
  const storage::durable::quorum::QuorumGroup& cb = *want.cohort();
  EXPECT_EQ(ca.commit_id(), cb.commit_id());
  EXPECT_EQ(ca.leader(), cb.leader());
  ASSERT_EQ(ca.member_count(), cb.member_count());
  for (std::uint32_t m = 0; m < ca.member_count(); ++m) {
    SCOPED_TRACE(m);
    EXPECT_EQ(ca.member_live(m), cb.member_live(m));
    EXPECT_EQ(ca.last_applied(m), cb.last_applied(m));
    EXPECT_EQ(ca.member_needs_full_copy(m), cb.member_needs_full_copy(m));
    EXPECT_EQ(ca.replica(m).store().fingerprint(),
              cb.replica(m).store().fingerprint());
    EXPECT_EQ(ca.replica(m).cursor().generation,
              cb.replica(m).cursor().generation);
    EXPECT_EQ(ca.replica(m).cursor().offset, cb.replica(m).cursor().offset);
  }
}

/// One point's verdict as a number: the digest of a one-point report.
std::uint64_t verdict(const CrashPoint& point) {
  CrashSweepReport report;
  report.points.push_back(point);
  return report.digest();
}

TEST(JudgeBench, ReusedBenchJudgesLikeAFreshOneAtEveryFrame) {
  // The durable chain shipping to a 3-member cohort whose member 2 fails
  // at frame 2 and is repaired at frame 24, after three compactions have
  // dropped its cursor: the mission reseeds it. One bench, reused at every
  // frame, must hold what a freshly built bench holds after its first
  // refresh, and reach the same verdict — its leader killed each time.
  constexpr Cycle kFrames = 30;
  const ProcessorId victim_id = synthetic_processor(0);
  for (const CrashSweepOptions::IoFault fault :
       {CrashSweepOptions::IoFault::kNone,
        CrashSweepOptions::IoFault::kTornWrite,
        CrashSweepOptions::IoFault::kBitFlip}) {
    SCOPED_TRACE(static_cast<int>(fault));
    CrashMission mission = chain_factory(SyncPolicy::frames(4),
                                         /*shipping=*/true, /*replicas=*/3)();
    core::System& system = *mission.system;
    sim::FaultPlan plan;
    plan.quorum_member_fail(2 * 10'000, victim_id, 2);
    plan.quorum_member_repair(24 * 10'000, victim_id, 2);
    system.set_fault_plan(std::move(plan));
    failstop::Processor& victim = system.processors().processor(victim_id);
    storage::durable::quorum::QuorumGroup& cohort =
        system.quorum_group(victim_id);

    CrashSweepOptions options;
    options.victim = victim_id;
    options.warm_start = true;
    options.quorum_kills = 1;
    options.io_fault = fault;
    std::vector<std::uint64_t> fingerprints{
        victim.poll_stable().fingerprint()};
    JudgeBench reused(victim, &cohort);
    for (Cycle f = 1; f <= kFrames; ++f) {
      SCOPED_TRACE(f);
      system.run(1);
      fingerprints.push_back(victim.poll_stable().fingerprint());
      reused.refresh(victim, &cohort);
      JudgeBench fresh(victim, &cohort);
      fresh.refresh(victim, &cohort);
      expect_same_bench(reused, fresh);
      const CrashPoint got = judge_crash_point(
          reused.victim(), reused.cohort(), options, f, fingerprints);
      const CrashPoint want = judge_crash_point(
          fresh.victim(), fresh.cohort(), options, f, fingerprints);
      ASSERT_EQ(verdict(got), verdict(want));
    }
    EXPECT_GE(system.stats().ship_reseeds, 1u);
    EXPECT_EQ(system.stats().quorum_member_repairs, 1u);
  }
}

TEST(JudgeBench, JudgingEveryFrameLeavesTheMissionUntouched) {
  // The sweep's premise: a bench refreshed from the mission and crashed at
  // every frame never reaches back into it. The judged mission keeps the
  // digest of an unjudged reference run at every frame.
  struct Case {
    MissionFactory factory;
    ProcessorId victim;
    std::uint32_t quorum_kills;
    Cycle frames;
  };
  const Case cases[] = {
      {chain_factory(SyncPolicy::frames(4), /*shipping=*/true,
                     /*replicas=*/3),
       synthetic_processor(0), 1, 24},
      {uav_factory(SyncPolicy::frames(4), /*shipping=*/true),
       avionics::kComputer1, 0, 64}};
  for (const CrashSweepOptions::IoFault fault :
       {CrashSweepOptions::IoFault::kNone,
        CrashSweepOptions::IoFault::kTornWrite,
        CrashSweepOptions::IoFault::kBitFlip}) {
    for (const Case& c : cases) {
      SCOPED_TRACE(static_cast<int>(fault));
      CrashMission reference = c.factory();
      std::vector<std::uint64_t> digests{reference.system->digest()};
      for (Cycle f = 1; f <= c.frames; ++f) {
        reference.system->run(1);
        digests.push_back(reference.system->digest());
      }

      CrashMission mission = c.factory();
      core::System& system = *mission.system;
      failstop::Processor& victim = system.processors().processor(c.victim);
      storage::durable::quorum::QuorumGroup& cohort =
          system.quorum_group(c.victim);
      CrashSweepOptions options;
      options.victim = c.victim;
      options.warm_start = true;
      options.quorum_kills = c.quorum_kills;
      options.io_fault = fault;
      std::vector<std::uint64_t> fingerprints{
          victim.poll_stable().fingerprint()};
      JudgeBench bench(victim, &cohort);
      for (Cycle f = 1; f <= c.frames; ++f) {
        system.run(1);
        fingerprints.push_back(victim.poll_stable().fingerprint());
        bench.refresh(victim, &cohort);
        const CrashPoint point = judge_crash_point(
            bench.victim(), bench.cohort(), options, f, fingerprints);
        EXPECT_TRUE(point.match && point.replica_match) << "frame " << f;
        ASSERT_EQ(system.digest(), digests[static_cast<std::size_t>(f)])
            << "frame " << f;
        ASSERT_TRUE(victim.running());
        ASSERT_FALSE(victim.last_recovery().has_value());
      }
    }
  }
}

/// Runs one sweep and returns its report digest.
std::uint64_t sweep_digest(const MissionFactory& factory,
                           CrashSweepOptions options) {
  const CrashSweepReport report = run_crash_sweep(factory, options);
  EXPECT_TRUE(report.all_match());
  return report.digest();
}

TEST(CheckpointedSweep, MatchesFromScratchOracleUnderEveryPolicyAndFault) {
  for (const auto& [name, policy] : all_policies()) {
    for (const CrashSweepOptions::IoFault fault :
         {CrashSweepOptions::IoFault::kNone,
          CrashSweepOptions::IoFault::kTornWrite,
          CrashSweepOptions::IoFault::kBitFlip}) {
      CrashSweepOptions options;
      options.frames = 16;
      options.victim = synthetic_processor(0);
      options.io_fault = fault;
      options.checkpointing = false;
      const std::uint64_t oracle =
          sweep_digest(chain_factory(policy), options);
      options.checkpointing = true;
      EXPECT_EQ(sweep_digest(chain_factory(policy), options), oracle)
          << name << " io-fault " << static_cast<int>(fault);
    }
  }
}

TEST(CheckpointedSweep, MatchesFromScratchOracleOnAvionicsMission) {
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 30;
    options.victim = avionics::kComputer1;
    options.checkpointing = false;
    const std::uint64_t oracle = sweep_digest(uav_factory(policy), options);
    options.checkpointing = true;
    EXPECT_EQ(sweep_digest(uav_factory(policy), options), oracle) << name;
  }
}

TEST(CheckpointedSweep, MatchesFromScratchOracleUnderWarmStart) {
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 12;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    options.checkpointing = false;
    const std::uint64_t oracle =
        sweep_digest(chain_factory(policy, /*shipping=*/true), options);
    options.checkpointing = true;
    EXPECT_EQ(sweep_digest(chain_factory(policy, /*shipping=*/true), options),
              oracle)
        << name;
  }
}

TEST(CheckpointedSweep, DigestIsStrideAndThreadCountInvariant) {
  // One interval per runner thread: 1–5 threads split 20 points into 1–5
  // intervals; a 1-frame mission and a 3-frame one under 5 threads give
  // one point per interval, as many intervals as points.
  for (const Cycle frames : {Cycle{20}, Cycle{1}, Cycle{3}}) {
    CrashSweepOptions options;
    options.frames = frames;
    options.victim = synthetic_processor(0);
    options.checkpointing = false;
    const std::uint64_t oracle =
        sweep_digest(chain_factory(SyncPolicy::frames(4)), options);

    options.checkpointing = true;
    for (std::size_t threads = 1; threads <= 5; ++threads) {
      sim::BatchOptions batch;
      batch.threads = threads;
      sim::BatchRunner runner(batch);
      const CrashSweepReport report = run_crash_sweep(
          chain_factory(SyncPolicy::frames(4)), options, runner);
      EXPECT_TRUE(report.all_match());
      EXPECT_EQ(report.points.size(), frames);
      EXPECT_EQ(report.digest(), oracle)
          << frames << " frames, " << threads << " threads";
    }
  }
}

TEST(CheckpointedSweep, ReportsItsExecutionCostMetrics) {
  CrashSweepOptions options;
  options.frames = 20;
  options.victim = synthetic_processor(0);
  // One thread: one interval, rolled by the baseline mission from frame 0,
  // so the sweep simulates the mission once and builds it once.
  sim::BatchRunner one_thread(sim::BatchOptions{1, 0});
  const CrashSweepReport rolled = run_crash_sweep(
      chain_factory(SyncPolicy::frames(4)), options, one_thread);
  EXPECT_EQ(rolled.simulated_frames, 20u);
  EXPECT_EQ(rolled.missions_built, 1u);

  // Three threads: intervals (0,6], (6,13], (13,20]. The baseline runs to
  // frame 13 and rolls the last one; the other two build a mission each.
  sim::BatchRunner three_threads(sim::BatchOptions{3, 0});
  const CrashSweepReport three = run_crash_sweep(
      chain_factory(SyncPolicy::frames(4)), options, three_threads);
  EXPECT_EQ(three.simulated_frames, 13u + 20u);
  EXPECT_EQ(three.missions_built, 3u);
  EXPECT_EQ(three.digest(), rolled.digest());

  options.checkpointing = false;
  const CrashSweepReport scratch = run_crash_sweep(
      chain_factory(SyncPolicy::frames(4)), options, one_thread);
  EXPECT_EQ(scratch.simulated_frames, 20u * 21u / 2u);
  EXPECT_EQ(scratch.missions_built, 20u);
  // The rolling strategy really simulated far fewer frames.
  EXPECT_LT(rolled.simulated_frames * 5, scratch.simulated_frames);
}

// --- the BENCH_*.json trajectory emitter ---

TEST(BenchJson, TrajectoryWritesValidParsableJson) {
  BenchTrajectory trajectory;
  EXPECT_TRUE(json_valid(trajectory.to_json()));  // empty object

  trajectory.record("sweep/F256/speedup", 7.5, "x");
  trajectory.record("needs \"escaping\"\n", -2.5e-3, "ms");
  trajectory.record("sweep/F256/speedup", 8.0, "x");  // overwrite, not dup
  ASSERT_EQ(trajectory.entries().size(), 2u);
  EXPECT_EQ(trajectory.entries()[0].value, 8.0);

  const std::string json = trajectory.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"unit\": \"x\""), std::string::npos);

  // The file a bench binary's --json flag produces must parse back clean.
  const std::string path = "BENCH_selftest.json";
  ASSERT_TRUE(trajectory.write_json(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_TRUE(json_valid(buffer.str())) << buffer.str();
  std::remove(path.c_str());
}

TEST(BenchJson, ValidatorRejectsMalformedText) {
  EXPECT_TRUE(json_valid("{}"));
  EXPECT_TRUE(json_valid(" {\"a\": [1, 2.5e-3, true, null, \"s\\u00e9\"]} "));
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{\"a\": }"));
  EXPECT_FALSE(json_valid("{\"a\": 1,}"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid("{\"a\": 01}"));
  EXPECT_FALSE(json_valid("{'a': 1}"));
  EXPECT_FALSE(json_valid("{\"a\": \"unterminated}"));
}

}  // namespace
}  // namespace arfs::support
