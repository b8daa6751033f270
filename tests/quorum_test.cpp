// Quorum-replicated journal shipping: majority-ack durability over an
// elected cohort of shipped replicas.
//
// Three layers under test: the QuorumGroup protocol (fan-out convergence,
// the majority-ack commit rule with fail-stop surviving acks, deterministic
// leader election without reseeds, joint membership changes, the
// lossy-recovery commit rebase, checkpoint round-trips), the assembled
// System in quorum mode (TDMA member slots, SCRAM kQuorumLost/kQuorumDurable
// signals, fault-plan routing, warm relocations served by surviving
// members), and the crash-point sweep with the quorum adversary: the leader
// fail-stops at every crash frame and the commit rule must still hold —
// with the N = 1 cohort pinned to the digests the former single-standby
// path recorded.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/common/check.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs {
namespace {

using storage::Value;
using storage::StableStorage;
using storage::durable::DurabilityEngine;
using storage::durable::DurableOptions;
using storage::durable::make_memory_engine;
using storage::durable::SyncPolicy;
using storage::durable::quorum::MemberId;
using storage::durable::quorum::QuorumGroup;
using storage::durable::quorum::QuorumOptions;
using support::CrashSweepOptions;
using support::CrashSweepReport;
using support::MissionFactory;
using support::run_crash_sweep;
using support::SimpleApp;
using support::synthetic_app;
using support::synthetic_config;
using support::synthetic_processor;

/// A source store + engine pair driven through the real commit protocol
/// (the same harness shipping_test uses for the one-member cohort).
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

/// Drains every member's shippable tail (dead/retired/reseed-pending
/// members stay put, exactly as in the relocation path).
std::size_t catch_up_all(QuorumGroup& group) {
  std::size_t total = 0;
  for (MemberId id = 0; id < group.member_count(); ++id) {
    total += group.catch_up_member(id);
  }
  return total;
}

/// Reseeds `id` from the source the way the owning System does.
void reseed_from(QuorumGroup& group, MemberId id, const Source& source) {
  group.reseed_member(id, source.store, source.engine->dictionary(),
                      source.engine->journal_generation(),
                      source.engine->journal().synced_size());
}

// --- the group protocol ---

TEST(QuorumFanOut, EveryMemberConvergesToTheSourceStream) {
  Source source;
  for (Cycle c = 1; c <= 8; ++c) {
    source.commit_frame(c, {{"alt", std::int64_t(100 + c)},
                            {"spd", std::int64_t(c)}});
  }

  QuorumGroup group(*source.engine, QuorumOptions{.replicas = 3});
  ASSERT_EQ(group.member_count(), 3u);
  EXPECT_EQ(group.leader(), MemberId{0});
  EXPECT_EQ(group.commit_id(), 0u);

  const std::size_t moved = catch_up_all(group);
  EXPECT_GT(moved, 0u);
  for (MemberId id = 0; id < 3; ++id) {
    EXPECT_EQ(group.replica(id).store().fingerprint(),
              source.store.fingerprint())
        << "member " << id;
    EXPECT_EQ(group.last_applied(id), 8u) << "member " << id;
  }
  EXPECT_EQ(group.commit_id(), 8u);
  EXPECT_EQ(group.stats().bytes_shipped, moved);
  EXPECT_GT(group.stats().commit_advances, 0u);
}

TEST(QuorumCommitRule, BoundaryIsTheMajorityAckNotTheFastestMember) {
  Source source;
  for (Cycle c = 1; c <= 4; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  QuorumGroup group(*source.engine, QuorumOptions{.replicas = 3});

  // One member ahead of everyone commits nothing: durability is what a
  // majority holds, not what the fastest replica holds.
  group.catch_up_member(0);
  EXPECT_EQ(group.last_applied(0), 4u);
  EXPECT_EQ(group.commit_id(), 0u);

  group.catch_up_member(1);
  EXPECT_EQ(group.commit_id(), 4u);
  EXPECT_EQ(group.last_applied(2), 0u);  // the straggler never moved
}

TEST(QuorumCommitRule, DeadMembersStableAcksStillHoldTheBoundary) {
  Source source;
  for (Cycle c = 1; c <= 5; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  QuorumGroup group(*source.engine, QuorumOptions{.replicas = 3});
  catch_up_all(group);
  ASSERT_EQ(group.commit_id(), 5u);

  // Fail-stop two members: the first keeps the majority, the second costs
  // it. Their acknowledged bytes live on stable devices and keep counting.
  EXPECT_FALSE(group.fail_member(1));
  EXPECT_TRUE(group.fail_member(2));
  EXPECT_FALSE(group.has_majority());

  for (Cycle c = 6; c <= 8; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  group.catch_up_member(0);
  // Acks are {8, 5, 5}: the dead members pin the boundary at 5 — they do
  // not void it to 0, and the lone survivor cannot advance it alone.
  EXPECT_EQ(group.commit_id(), 5u);

  EXPECT_TRUE(group.repair_member(2));
  EXPECT_TRUE(group.has_majority());
  group.catch_up_member(2);  // resumes at its surviving cursor
  EXPECT_EQ(group.commit_id(), 8u);
  EXPECT_EQ(group.stats().member_failures, 2u);
  EXPECT_EQ(group.stats().member_repairs, 1u);
}

TEST(QuorumElection, LeaderFailStopReElectsWithoutAReseed) {
  Source source;
  for (Cycle c = 1; c <= 6; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  QuorumGroup group(*source.engine, QuorumOptions{.replicas = 3});
  catch_up_all(group);
  ASSERT_EQ(group.leader(), MemberId{0});
  ASSERT_EQ(group.stats().elections, 0u);

  // The leader fail-stops: the election re-runs by rule (lowest live id)
  // and shipping resumes from the new leader's own cursor — no full copy.
  EXPECT_FALSE(group.fail_member(0));
  EXPECT_EQ(group.leader(), MemberId{1});
  EXPECT_EQ(group.stats().elections, 1u);
  const std::vector<MemberId> order = group.warm_start_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], MemberId{1});
  EXPECT_EQ(order[1], MemberId{2});

  for (Cycle c = 7; c <= 8; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  catch_up_all(group);
  EXPECT_EQ(group.replica(1).store().fingerprint(),
            source.store.fingerprint());
  EXPECT_EQ(group.commit_id(), 8u);
  EXPECT_EQ(group.stats().reseeds, 0u);
  EXPECT_EQ(group.stats().fallbacks, 0u);

  // The repaired original wins the election back (deterministic rule).
  group.repair_member(0);
  EXPECT_EQ(group.leader(), MemberId{0});
  EXPECT_EQ(group.stats().elections, 2u);
}

TEST(QuorumReconfig, JointRuleGatesCommitUntilTheNewMajorityCatchesUp) {
  Source source;
  for (Cycle c = 1; c <= 5; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  QuorumGroup group(*source.engine, QuorumOptions{.replicas = 3});
  catch_up_all(group);
  ASSERT_EQ(group.commit_id(), 5u);

  // Swap most of the cohort: retire members 0 and 1, add two fresh ones.
  // The fresh members hold nothing, so the new voter set {2, 3, 4} has no
  // majority at the proposal epoch — the change stays in flight.
  const std::vector<MemberId> added = group.begin_reconfig(2, {0, 1});
  ASSERT_EQ(added, (std::vector<MemberId>{3, 4}));
  EXPECT_TRUE(group.reconfiguring());
  EXPECT_TRUE(group.member_needs_full_copy(3));
  EXPECT_TRUE(group.member_needs_full_copy(4));

  // While joint, the commit boundary needs BOTH majorities: the old voters
  // reach 8 but the new voters' majority is still 0, so it cannot move.
  for (Cycle c = 6; c <= 8; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  catch_up_all(group);
  EXPECT_TRUE(group.reconfiguring());
  EXPECT_EQ(group.commit_id(), 5u);

  // Fresh members join via the full-copy path. One reseed gives the new
  // voters a majority at/above the proposal epoch: the change completes,
  // retirees drop out, and the boundary advances under the new set.
  reseed_from(group, 3, source);
  EXPECT_FALSE(group.reconfiguring());
  EXPECT_TRUE(group.member_retired(0));
  EXPECT_TRUE(group.member_retired(1));
  EXPECT_EQ(group.voters(), (std::vector<MemberId>{2, 3, 4}));
  EXPECT_EQ(group.leader(), MemberId{2});
  EXPECT_EQ(group.commit_id(), 8u);
  EXPECT_EQ(group.stats().membership_changes, 1u);

  // Retired members' slots go idle; the last joiner still catches up.
  EXPECT_EQ(group.pump_member(0, 4096), 0u);
  reseed_from(group, 4, source);
  EXPECT_EQ(group.last_applied(4), 8u);

  // A reseeded member's warmth was bought, not streamed: the relocation
  // credit is spent once and re-arms after the claim.
  EXPECT_FALSE(group.take_warm_credit(3));
  EXPECT_TRUE(group.take_warm_credit(3));
  EXPECT_TRUE(group.take_warm_credit(2));
}

TEST(QuorumRebase, LossyRecoveryRebasesInsteadOfPinningAVanishedEpoch) {
  Source source;
  for (Cycle c = 1; c <= 8; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  QuorumGroup group(*source.engine, QuorumOptions{.replicas = 3});
  catch_up_all(group);
  ASSERT_EQ(group.commit_id(), 8u);

  // A lossy recovery rolls the source back to epoch 5 and bumps the journal
  // generation: epochs 6..8 no longer exist in any live history. Reseeding
  // a member from the rolled-back store must re-base the commit id — the
  // one sanctioned exception to its monotonicity — and clamp the dead-
  // generation members' acks to the shared prefix below the boundary.
  Source rolled;
  for (Cycle c = 1; c <= 5; ++c) {
    rolled.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  group.reseed_member(0, rolled.store, rolled.engine->dictionary(),
                      source.engine->journal_generation() + 1,
                      rolled.engine->journal().synced_size());

  EXPECT_EQ(group.last_applied(0), 5u);
  EXPECT_EQ(group.last_applied(1), 5u);
  EXPECT_EQ(group.last_applied(2), 5u);
  EXPECT_EQ(group.commit_id(), 5u);
  EXPECT_EQ(group.stats().reseeds, 1u);
}

TEST(QuorumCheckpoint, RoundTripRestoresTheGroupAcrossAMembershipChange) {
  Source source;
  for (Cycle c = 1; c <= 4; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  QuorumGroup group(*source.engine, QuorumOptions{.replicas = 3});
  catch_up_all(group);
  group.fail_member(2);
  const std::uint64_t frozen_fingerprint =
      group.replica(0).store().fingerprint();
  // The checkpoint: a spare group on a spare engine, copied from the live
  // group.
  const std::unique_ptr<DurabilityEngine> spare_engine = make_memory_engine();
  QuorumGroup spare(*spare_engine, group.options());
  spare.restore_state(group);

  // Mutate well past the checkpoint: repair, a completed membership change
  // (which retires member 0 and appends member 3), and more streaming.
  group.repair_member(2);
  group.begin_reconfig(1, {0});
  reseed_from(group, 3, source);
  for (Cycle c = 5; c <= 6; ++c) {
    source.commit_frame(c, {{"k", std::int64_t(c)}});
  }
  catch_up_all(group);
  ASSERT_EQ(group.member_count(), 4u);
  ASSERT_TRUE(group.member_retired(0));
  ASSERT_EQ(group.commit_id(), 6u);

  // Restore rewinds everything: roster size, retirement, liveness, voter
  // sets, the commit boundary, leadership, and the stats block.
  group.restore_state(spare);
  EXPECT_EQ(group.member_count(), 3u);
  EXPECT_FALSE(group.member_retired(0));
  EXPECT_FALSE(group.member_live(2));
  EXPECT_FALSE(group.reconfiguring());
  EXPECT_EQ(group.voters(), (std::vector<MemberId>{0, 1, 2}));
  EXPECT_EQ(group.leader(), MemberId{0});
  EXPECT_EQ(group.commit_id(), 4u);
  EXPECT_EQ(group.replica(0).store().fingerprint(), frozen_fingerprint);
  EXPECT_EQ(group.stats().member_failures, 1u);
  EXPECT_EQ(group.stats().member_repairs, 0u);
  EXPECT_EQ(group.stats().reseeds, 0u);

  // The restored group is live: repair the dead member and stream the
  // post-checkpoint epochs it never saw.
  group.repair_member(2);
  catch_up_all(group);
  EXPECT_EQ(group.commit_id(), 6u);
  EXPECT_EQ(group.replica(2).store().fingerprint(),
            source.store.fingerprint());
}

TEST(QuorumContract, PreconditionsAreEnforced) {
  Source source;
  source.commit_frame(1, {{"k", 1}});
  EXPECT_THROW(QuorumGroup(*source.engine, QuorumOptions{.replicas = 0}),
               ContractViolation);

  QuorumGroup group(*source.engine, QuorumOptions{.replicas = 3});
  EXPECT_THROW(group.pump_member(3, 4096), ContractViolation);
  EXPECT_THROW(group.begin_reconfig(0, {7}), ContractViolation);
  EXPECT_THROW(group.begin_reconfig(0, {0, 1, 2}), ContractViolation);
  // A change that swaps out the majority cannot complete until the fresh
  // members catch up, so it genuinely stays in flight — a second proposal
  // while joint must be rejected.
  catch_up_all(group);
  group.begin_reconfig(2, {0, 1});
  ASSERT_TRUE(group.reconfiguring());
  EXPECT_THROW(group.begin_reconfig(1, {}), ContractViolation);
}

// --- the assembled system ---

/// Chain-spec mission with an N-member quorum cohort shadowing every
/// durable processor (N = 1 is the warm standby).
support::MissionFactory quorum_chain_factory(SyncPolicy policy,
                                             std::uint32_t replicas) {
  return [policy, replicas] {
    auto spec = std::make_shared<core::ReconfigSpec>(
        support::make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.journal_shipping = true;
    options.quorum_replicas = replicas;
    options.durability.snapshot_every_epochs = 7;
    options.durability.sync = policy;
    auto system = std::make_unique<core::System>(*spec, options);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(std::make_unique<SimpleApp>(decl.id, decl.name));
    }
    support::CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

/// The paper's §7 avionics mission (autopilot + FCS, two reconfigurations
/// down and one back up) with a quorum cohort per durable processor.
support::MissionFactory quorum_uav_factory(SyncPolicy policy,
                                           std::uint32_t replicas) {
  return [policy, replicas] {
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
    options.journal_shipping = true;
    options.quorum_replicas = replicas;
    options.durability.snapshot_every_epochs = 16;
    options.durability.sync = policy;
    auto system = std::make_unique<core::System>(bundle->spec, options);
    system->add_app(
        std::make_unique<avionics::AutopilotApp>(bundle->plant));
    system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));

    support::MissionProfile mission(options.frame_length);
    mission.at(10, avionics::kPowerFactor, 1)
        .at(25, avionics::kPowerFactor, 2)
        .at(40, avionics::kPowerFactor, 0);
    system->set_fault_plan(mission.build());

    support::CrashMission out;
    out.keepalive = bundle;
    out.system = std::move(system);
    return out;
  };
}

/// The four policies every sweep must pass under.
std::vector<std::pair<std::string, SyncPolicy>> all_policies() {
  return {{"every-commit", SyncPolicy::every_commit()},
          {"bytes(512)", SyncPolicy::bytes(512)},
          {"frames(4)", SyncPolicy::frames(4)},
          {"hybrid(4096,8)", SyncPolicy::hybrid(4096, 8)}};
}

TEST(QuorumSystem, QuorumReplicasRequiresJournalShipping) {
  const auto spec = support::make_chain_spec({});
  core::SystemOptions options;
  options.durable_storage = true;
  options.quorum_replicas = 3;  // but journal_shipping is off
  EXPECT_THROW(core::System(spec, options), ContractViolation);
}

TEST(QuorumSystem, QuorumReplicasMustBePositive) {
  const auto spec = support::make_chain_spec({});
  core::SystemOptions options;
  options.durable_storage = true;
  options.journal_shipping = true;
  options.quorum_replicas = 0;  // a cohort needs at least one member
  EXPECT_THROW(core::System(spec, options), ContractViolation);
  EXPECT_EQ(core::SystemOptions{}.quorum_replicas, 1u);
}

TEST(QuorumSystem, SingleMemberCohortShipsByteIdenticallyToSingleStandby) {
  // N = 1 is the warm standby: same slot budgets, same stream, same replica
  // bytes as the former single-standby path, whose values after 12 frames
  // of this mission are pinned here.
  support::CrashMission cohort =
      quorum_chain_factory(SyncPolicy::frames(3), 1)();
  cohort.system->run(12);

  const ProcessorId victim = synthetic_processor(0);
  ASSERT_TRUE(cohort.system->has_ship_channel(victim));
  EXPECT_EQ(cohort.system->stats().ship_bytes_total, 1788u);
  EXPECT_EQ(cohort.system->stats().ship_slots_polled, 36u);
  EXPECT_EQ(cohort.system->ship_replica(victim).store().fingerprint(),
            0x39a1d39deb6665d8u);
  EXPECT_EQ(cohort.system->ship_replica(victim).cursor().offset, 200u);

  // At one member the commit id IS the lone cursor's epoch.
  const QuorumGroup& group = cohort.system->quorum_group(victim);
  EXPECT_EQ(group.commit_id(),
            cohort.system->ship_replica(victim).cursor().epoch);
  EXPECT_EQ(group.commit_id(), 10u);
}

TEST(QuorumSystem, MajorityLossRaisesQuorumLostAndRepairRestoresIt) {
  support::CrashMission m =
      quorum_chain_factory(SyncPolicy::every_commit(), 3)();
  core::System& system = *m.system;
  system.run(4);

  const ProcessorId victim = synthetic_processor(0);
  ASSERT_TRUE(system.has_ship_channel(victim));
  ASSERT_EQ(system.quorum_group(victim).member_count(), 3u);

  // Losing one member keeps the majority quiet; losing the second raises
  // kQuorumLost, which the SCRAM drains on the next frame.
  system.fail_quorum_member(victim, 1);
  system.run(1);
  EXPECT_EQ(system.stats().quorum_member_failures, 1u);
  EXPECT_EQ(system.stats().quorum_losses, 0u);

  system.fail_quorum_member(victim, 2);
  system.run(1);
  EXPECT_EQ(system.stats().quorum_member_failures, 2u);
  EXPECT_EQ(system.stats().quorum_losses, 1u);
  EXPECT_EQ(system.scram().stats().quorum_losses, 1u);
  EXPECT_FALSE(system.quorum_group(victim).has_majority());

  // Repairing one member restores the majority: kQuorumDurable.
  system.repair_quorum_member(victim, 2);
  system.run(1);
  EXPECT_EQ(system.stats().quorum_member_repairs, 1u);
  EXPECT_EQ(system.stats().quorum_restores, 1u);
  EXPECT_EQ(system.scram().stats().quorum_restores, 1u);
  EXPECT_TRUE(system.quorum_group(victim).has_majority());

  // The surviving members kept streaming all along: the leader's replica
  // converges to the source store on catch-up.
  (void)system.ship_catch_up(victim);
  const auto& proc = system.processors().processor(victim);
  EXPECT_EQ(system.ship_replica(victim).store().fingerprint(),
            proc.poll_stable().fingerprint());
}

TEST(QuorumSystem, FaultPlanDrivesCohortFailuresAndRepairs) {
  support::CrashMission m =
      quorum_chain_factory(SyncPolicy::every_commit(), 3)();
  core::System& system = *m.system;
  const ProcessorId victim = synthetic_processor(0);

  sim::FaultPlan plan;
  plan.quorum_member_fail(2 * 10'000, victim, 1);
  plan.quorum_member_fail(3 * 10'000, victim, 2);
  plan.quorum_member_repair(5 * 10'000, victim, 1);
  system.set_fault_plan(std::move(plan));
  system.run(8);

  EXPECT_EQ(system.stats().quorum_member_failures, 2u);
  EXPECT_EQ(system.stats().quorum_member_repairs, 1u);
  EXPECT_EQ(system.stats().quorum_losses, 1u);
  EXPECT_EQ(system.stats().quorum_restores, 1u);
  const QuorumGroup& group = system.quorum_group(victim);
  EXPECT_TRUE(group.member_live(1));
  EXPECT_FALSE(group.member_live(2));
}

// --- the one apply path: every member at its own epoch ---

/// Byte budget of each member's slot in the apply-path missions: small
/// enough that batches end inside records under every sync policy, large
/// enough that members catch up between compactions and rebase.
constexpr std::uint32_t kSplittingSlotBytes = 96;

/// What one apply-path mission exercised, summed over its frames.
struct ApplyCoverage {
  std::uint64_t member_checks = 0;  ///< (frame, live member) pairs checked.
  std::uint64_t split_frames = 0;   ///< Frames a member ended mid-record.
};

/// Runs `system` for `frames` frames and checks, after every frame, that
/// each live member of `victim`'s cohort holds exactly the committed store
/// `victim` had at the member's cursor epoch, and counts that many commit
/// epochs. The victim's store is copied at each epoch it reaches while
/// running; a lossy recovery rewinds its epoch count, and the epochs it
/// then commits again overwrite the vanished ones.
ApplyCoverage check_every_member_at_its_epoch(core::System& system,
                                              ProcessorId victim,
                                              Cycle frames) {
  std::map<std::uint64_t, StableStorage> source_at;
  failstop::Processor& source = system.processors().processor(victim);
  source_at.insert_or_assign(source.stable().commit_epochs(),
                             source.stable());
  ApplyCoverage coverage;
  for (Cycle f = 0; f < frames; ++f) {
    system.run_frame();
    if (source.running()) {
      source_at.insert_or_assign(source.stable().commit_epochs(),
                                 source.stable());
    }
    const QuorumGroup& group = system.quorum_group(victim);
    bool split = false;
    for (MemberId id = 0; id < group.member_count(); ++id) {
      if (!group.member_live(id) || group.member_retired(id)) continue;
      const storage::durable::ShippedReplica& replica = group.replica(id);
      const std::uint64_t epoch = replica.cursor().epoch;
      EXPECT_EQ(replica.store().commit_epochs(), epoch)
          << "frame " << f << ", member " << id;
      const auto at = source_at.find(epoch);
      if (at == source_at.end()) {
        ADD_FAILURE() << "frame " << f << ", member " << id << ": epoch "
                      << epoch << " the source never reached";
        continue;
      }
      EXPECT_TRUE(replica.store().same_committed(at->second))
          << "frame " << f << ", member " << id << ", epoch " << epoch;
      split = split || replica.pending_bytes() > 0;
      ++coverage.member_checks;
    }
    if (split) ++coverage.split_frames;
  }
  return coverage;
}

TEST(QuorumSystem, EveryLiveMemberHoldsTheSourceAtItsCursorEpoch) {
  // A replica has one apply path: each shipped commit is restored with its
  // source cycle and epoch. After every frame, every live member must hold
  // the source's committed entries as they stood at its cursor epoch —
  // through compactions and rebases (a snapshot every 7 epochs), a bit flip
  // whose lossy recovery reseeds the cohort, a member fail and repair, and
  // slots small enough to split records across batches. All four sync
  // policies, one- and three-member cohorts.
  const auto spec = support::make_chain_spec({});
  const ProcessorId victim = synthetic_processor(0);
  for (const auto& [name, policy] : all_policies()) {
    for (const std::uint32_t replicas : {1u, 3u}) {
      SCOPED_TRACE(name + ", N = " + std::to_string(replicas));
      core::SystemOptions options;
      options.durable_storage = true;
      options.journal_shipping = true;
      options.quorum_replicas = replicas;
      options.ship_slot_bytes = kSplittingSlotBytes;
      options.durability.snapshot_every_epochs = 7;
      options.durability.sync = policy;
      core::System system(spec, options);
      for (const core::AppDecl& decl : spec.apps()) {
        system.add_app(std::make_unique<SimpleApp>(decl.id, decl.name));
      }
      const MemberId last = replicas - 1;
      support::MissionProfile mission(options.frame_length);
      mission.at(6, support::kChainSeverityFactor, 1)
          .journal_bit_flip(17, victim, 3)
          .fail(18, victim)
          .repair(21, victim)
          .at(34, support::kChainSeverityFactor, 0);
      sim::FaultPlan plan = mission.build();
      plan.quorum_member_fail(26 * options.frame_length, victim, last);
      plan.quorum_member_repair(31 * options.frame_length, victim, last);
      system.set_fault_plan(std::move(plan));

      const ApplyCoverage coverage =
          check_every_member_at_its_epoch(system, victim, 56);

      const storage::durable::quorum::QuorumStats& stats =
          system.quorum_group(victim).stats();
      // The mission reached every case it is meant to cover.
      EXPECT_GT(coverage.member_checks, 0u);
      EXPECT_GT(coverage.split_frames, 0u);
      EXPECT_GT(stats.rebases, 0u);
      EXPECT_GT(stats.reseeds, 0u);
      EXPECT_EQ(system.stats().lossy_recoveries, 1u);
      EXPECT_EQ(stats.member_failures, 1u);
      EXPECT_EQ(stats.member_repairs, 1u);
    }
  }
}

// --- crash-point sweeps: the quorum adversary ---

/// Warm-start sweep digests of the former single-standby path on the chain
/// mission (12 frames), in all_policies() order — the oracle the N = 1
/// cohort must reproduce bit for bit.
constexpr std::uint64_t kStandbySweepDigests[] = {
    0xbb33ec5833c17a3b, 0x99493e1bca4f8d6f, 0xd25f15d0cfd2705a,
    0x99493e1bca4f8d6f};
/// The same sweeps with a durable bit flipped at every crash point.
constexpr std::uint64_t kStandbyBitFlipSweepDigests[] = {
    0x486bed07f1d40f7e, 0xd0ca9ca775f43f67, 0xb3126fc04baf4ad9,
    0xd0ca9ca775f43f67};

TEST(QuorumSweep, SingleMemberSweepIsDigestIdenticalToSingleStandbyOracle) {
  // The acceptance anchor: at N = 1 the quorum path must reproduce the
  // single-standby warm-start sweep bit for bit, under every sync policy.
  const auto policies = all_policies();
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& [name, policy] = policies[i];
    CrashSweepOptions options;
    options.frames = 12;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    const CrashSweepReport cohort =
        run_crash_sweep(quorum_chain_factory(policy, 1), options);
    EXPECT_TRUE(cohort.all_match()) << name;
    EXPECT_EQ(cohort.digest(), kStandbySweepDigests[i]) << name;
  }
}

TEST(QuorumSweep, SingleMemberBitFlipSweepMatchesOracleThroughTheRebase) {
  // A flipped durable bit can force a lossy recovery: the source rewrites
  // history and the cohort must re-base its commit id onto the reseeded
  // boundary instead of pinning the vanished epoch. At N = 1 this, too,
  // must be digest-identical to the single-standby oracle.
  const auto policies = all_policies();
  for (std::size_t i = 0; i < policies.size(); ++i) {
    const auto& [name, policy] = policies[i];
    CrashSweepOptions options;
    options.frames = 12;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    options.io_fault = CrashSweepOptions::IoFault::kBitFlip;
    const CrashSweepReport cohort =
        run_crash_sweep(quorum_chain_factory(policy, 1), options);
    EXPECT_TRUE(cohort.all_match()) << name;
    EXPECT_EQ(cohort.digest(), kStandbyBitFlipSweepDigests[i]) << name;
  }
}

TEST(QuorumSweep, LeaderKillAtEveryCrashFrameHoldsTheCommitRule) {
  // The adversary: at every crash point of the chain mission the elected
  // leader fail-stops before the catch-up. A surviving member must serve
  // the warm start, the cohort must keep its majority, and the majority-
  // acknowledged commit id must equal the epoch served. All four sync
  // policies. Leader churn must buy no full-copy reseeds of its own:
  // group-commit policies reseed at points where the fail-stop itself was
  // a lossy recovery, and the kill sweep must reseed at exactly the same
  // points as the undisturbed baseline.
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 20;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    const CrashSweepReport baseline =
        run_crash_sweep(quorum_chain_factory(policy, 3), options);
    options.quorum_kills = 1;
    const CrashSweepReport report =
        run_crash_sweep(quorum_chain_factory(policy, 3), options);
    ASSERT_EQ(report.points.size(), 20u) << name;
    EXPECT_TRUE(baseline.all_match()) << name;
    EXPECT_TRUE(report.all_match())
        << name << ": " << report.mismatches << " recovery / "
        << report.replica_mismatches << " replica mismatches";
    EXPECT_EQ(report.replica_reseeds, baseline.replica_reseeds) << name;
  }
}

TEST(QuorumSweep, FiveMemberCohortSurvivesTwoLeaderKills) {
  // N = 5 tolerates any minority: kill the leader twice per crash point
  // (the second kill takes the freshly elected successor) and the commit
  // rule must still hold off the three survivors.
  CrashSweepOptions options;
  options.frames = 15;
  options.victim = synthetic_processor(0);
  options.warm_start = true;
  const CrashSweepReport baseline = run_crash_sweep(
      quorum_chain_factory(SyncPolicy::hybrid(4096, 8), 5), options);
  options.quorum_kills = 2;
  const CrashSweepReport report = run_crash_sweep(
      quorum_chain_factory(SyncPolicy::hybrid(4096, 8), 5), options);
  EXPECT_TRUE(report.all_match())
      << report.mismatches << " recovery / " << report.replica_mismatches
      << " replica mismatches";
  EXPECT_EQ(report.replica_reseeds, baseline.replica_reseeds);
}

TEST(QuorumSweep, AvionicsLeaderKillSweepHoldsUnderEveryPolicy) {
  // The §7 avionics mission with reconfigurations in flight: the quorum
  // adversary at every crash frame of computer 1, all four policies.
  for (const auto& [name, policy] : all_policies()) {
    CrashSweepOptions options;
    options.frames = 30;
    options.victim = avionics::kComputer1;
    options.warm_start = true;
    options.quorum_kills = 1;
    const CrashSweepReport report =
        run_crash_sweep(quorum_uav_factory(policy, 3), options);
    EXPECT_TRUE(report.all_match())
        << name << ": " << report.mismatches << " recovery / "
        << report.replica_mismatches << " replica mismatches";
  }
}

TEST(QuorumSweep, CheckpointedSweepMatchesTheFromScratchOracle) {
  // The O(F·K) checkpointed strategy must reproduce the O(F²) from-scratch
  // sweep bit for bit with cohort state in the checkpoint image.
  const auto digest_with = [](bool checkpointing) {
    CrashSweepOptions options;
    options.frames = 12;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    options.quorum_kills = 1;
    options.checkpointing = checkpointing;
    return run_crash_sweep(
               quorum_chain_factory(SyncPolicy::frames(4), 3), options)
        .digest();
  };
  EXPECT_EQ(digest_with(true), digest_with(false));
}

TEST(QuorumSweep, ReportIsBitIdenticalAcrossThreadCounts) {
  const auto digest_with = [](std::size_t threads) {
    sim::BatchOptions batch;
    batch.threads = threads;
    sim::BatchRunner runner(batch);
    CrashSweepOptions options;
    options.frames = 10;
    options.victim = synthetic_processor(0);
    options.warm_start = true;
    options.quorum_kills = 1;
    return run_crash_sweep(quorum_chain_factory(SyncPolicy::frames(3), 3),
                           options, runner)
        .digest();
  };
  EXPECT_EQ(digest_with(1), digest_with(4));
}

}  // namespace
}  // namespace arfs
