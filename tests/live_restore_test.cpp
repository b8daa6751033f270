// Copying a durable layer into a spare of its own type and back.
//
// failstop::Processor, durable::DurabilityEngine, durable::ShippedReplica
// and quorum::QuorumGroup each have one copy body, restore_state(source):
// support::JudgeBench::refresh copies the live crash victim and its cohort
// into the bench with it, and a core::SystemCheckpoint's spare processors
// and cohorts are refreshed and restored from with it too. A copy straight
// from a live object must leave its target exactly as a round trip through
// a spare does (the live object into a spare, then the spare into the
// target), and holding its source's state:
//  * a durable victim and its cohort at every frame of a mission whose
//    engine compacts its journal (the frames just after a compaction keep
//    the previous generation's retained tail), refreshed over a later,
//    larger state and over the state the last verdict left behind;
//  * a victim right after a torn-tail crash (its recovery report and lost
//    epochs), and judged once repaired;
//  * a replica holding a partial record, restored over a replica whose
//    stream announced its names in another order: both go on applying the
//    source's stream exactly like the source, so no stale dictionary-id
//    memo survives the restore;
//  * a cohort restored into a bench with more members than its source
//    (the bench sheds them) and into one with fewer (it grows new ones,
//    whose reseeded members carry no warm credit).
// And the verdict reuses the recovered store's fingerprint for the leader
// replica only when the two stores hold the same committed entries: judged
// on a cohort that ran ahead of the victim, a replica that differs keeps
// its own.
// Each comparison hashes the layer's view (what the system digest reads)
// together with the state no digest covers: stats, the journal dictionary,
// the recovery report and the self-checking pair's counters. Each copied
// bench is then judged (judge_crash_point); both copies must reach the
// same verdict and leave the same state behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "arfs/common/hash.hpp"
#include "arfs/core/system.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/storage/durable/shipping.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::support {
namespace {

using storage::StableStorage;
using storage::durable::DurabilityEngine;
using storage::durable::EngineView;
using storage::durable::JournalBackend;
using storage::durable::ShippedReplica;
using storage::durable::SyncPolicy;
using storage::durable::quorum::MemberId;
using storage::durable::quorum::QuorumGroup;

/// The durable chain shipping to a cohort of `replicas` members through
/// quorum slots of `slot_bytes` (48 by default, so members lag, hold
/// partial records and reseed); a snapshot every 7 epochs compacts the
/// journal.
CrashMission chain_mission(std::uint32_t replicas,
                           std::uint32_t slot_bytes = 48) {
  auto spec = std::make_shared<core::ReconfigSpec>(make_chain_spec({}));
  core::SystemOptions options;
  options.durable_storage = true;
  options.journal_shipping = true;
  options.quorum_replicas = replicas;
  options.ship_slot_bytes = slot_bytes;
  options.durability.snapshot_every_epochs = 7;
  options.durability.sync = SyncPolicy::frames(4);
  auto system = std::make_unique<core::System>(*spec, options);
  for (const core::AppDecl& decl : spec->apps()) {
    system->add_app(std::make_unique<SimpleApp>(decl.id, decl.name));
  }
  CrashMission mission;
  mission.keepalive = spec;
  mission.system = std::move(system);
  return mission;
}

const ProcessorId kVictim = synthetic_processor(0);

failstop::Processor& victim_of(CrashMission& mission) {
  return mission.system->processors().processor(kVictim);
}

QuorumGroup& cohort_of(CrashMission& mission) {
  return mission.system->quorum_group(kVictim);
}

// --- state digests -------------------------------------------------------

/// A word-only stats struct, folded word by word.
template <class Stats>
std::uint64_t fold_words(std::uint64_t h, const Stats& stats) {
  static_assert(std::has_unique_object_representations_v<Stats>);
  return fnv_mix_bytes(
      h, {reinterpret_cast<const std::uint8_t*>(&stats), sizeof stats});
}

std::uint64_t fold_device(std::uint64_t h, const JournalBackend& device) {
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(device.size()));
  EXPECT_EQ(device.read(0, bytes.data(), bytes.size()), bytes.size());
  h = fnv_mix(h, device.size());
  h = fnv_mix(h, device.synced_size());
  return fnv_mix_bytes(h, bytes);
}

std::uint64_t fold_engine(std::uint64_t h, const EngineView& engine) {
  h = fold_device(h, *engine.journal);
  h = fold_device(h, *engine.snapshots);
  for (const std::uint64_t word :
       {engine.appended_epoch, engine.journal_generation, engine.rebase_epoch,
        engine.ship_horizon, engine.adaptive_watermark_fp}) {
    h = fnv_mix(h, word);
  }
  h = fnv_mix(h, (engine.rebase_ok ? 2u : 0u) |
                     (engine.reconfig_pressure ? 1u : 0u));
  h = fnv_mix(h, engine.retained_tail.size());
  return fnv_mix_bytes(h, engine.retained_tail);
}

std::uint64_t fold_store(std::uint64_t h, const StableStorage& store) {
  h = fnv_mix(h, store.fingerprint());
  h = fnv_mix(h, store.commit_epochs());
  return fnv_mix(h, store.pending_count());
}

std::uint64_t fold_names(std::uint64_t h, std::span<const std::string> names) {
  h = fnv_mix(h, names.size());
  for (const std::string& name : names) {
    h = fnv_mix_bytes(h, name);
    h = fnv_mix(h, name.size());
  }
  return h;
}

/// A processor's view plus its pair's counters, its last recovery report,
/// its engine's stats and its journal dictionary.
std::uint64_t state_digest(failstop::Processor& p) {
  const failstop::ProcessorView view = p.view();
  std::uint64_t h = fnv_mix(kFnvBasis, static_cast<std::uint64_t>(view.state));
  h = fold_store(h, *view.stable);
  h = fnv_mix(h, view.volatile_store->fingerprint());
  h = fnv_mix(h, view.lost_epochs);
  h = fnv_mix(h, view.failed_at.has_value() ? *view.failed_at + 1 : 0);
  h = fnv_mix(h, view.failures);
  h = fnv_mix(h, p.pair().comparisons());
  h = fnv_mix(h, p.pair().divergences());
  h = fnv_mix(h, p.pair().halted() ? 1 : 0);
  if (const auto& r = p.last_recovery(); r.has_value()) {
    for (const std::uint64_t word :
         {std::uint64_t{r->used_snapshot}, r->snapshot_epoch,
          r->records_applied, r->records_skipped, r->last_epoch,
          std::uint64_t{r->journal_truncated}, r->valid_bytes}) {
      h = fnv_mix(h, word);
    }
    h = fnv_mix_bytes(h, r->note);
  }
  DurabilityEngine& engine = *p.durability();
  h = fold_engine(h, engine.view());
  h = fold_words(h, engine.stats());
  return fold_names(h, engine.dictionary());
}

/// A replica's view plus its stats.
std::uint64_t fold_replica(std::uint64_t h, const ShippedReplica& replica) {
  const storage::durable::ReplicaView view = replica.view();
  h = fold_store(h, *view.store);
  h = fnv_mix(h, view.cursor.generation);
  h = fnv_mix(h, view.cursor.offset);
  h = fnv_mix(h, view.cursor.epoch);
  h = fold_names(h, view.dict);
  h = fnv_mix(h, view.pending.size());
  h = fnv_mix_bytes(h, view.pending);
  h = fnv_mix(h, view.engine.has_value() ? 1 : 0);
  if (view.engine.has_value()) h = fold_engine(h, *view.engine);
  return fold_words(h, replica.stats());
}

/// A cohort's view, every member's view and replica stats included.
std::uint64_t state_digest(const QuorumGroup& group) {
  const storage::durable::quorum::QuorumView view = group.view();
  std::uint64_t h = fnv_mix(kFnvBasis, view.members);
  for (MemberId id = 0; id < view.members; ++id) {
    const storage::durable::quorum::MemberView m = group.member_view(id);
    h = fold_replica(h, group.replica(id));
    h = fnv_mix(h, m.last_applied);
    h = fnv_mix(h, (m.live ? 8u : 0u) | (m.retired ? 4u : 0u) |
                       (m.needs_full_copy ? 2u : 0u) |
                       (m.warm_credit ? 1u : 0u));
    h = fnv_mix(h, m.consecutive_corrupt);
  }
  for (const auto voters : {view.old_voters, view.new_voters}) {
    h = fnv_mix(h, voters.size());
    for (const MemberId v : voters) h = fnv_mix(h, v);
  }
  h = fnv_mix(h, view.reconfiguring ? 1 : 0);
  h = fnv_mix(h, view.reconfig_epoch);
  h = fnv_mix(h, view.commit_id);
  h = fnv_mix(h, view.leader.has_value() ? *view.leader + 1 : 0);
  return fold_words(h, *view.stats);
}

// --- the two copies, compared -------------------------------------------

/// Refreshes `direct` from the live pair, and `imaged` through `spare`, a
/// bench reused like a checkpoint's spares: the live pair is copied into
/// the spare, then the spare into `imaged`. Both must then hold the live
/// pair's state.
void refresh_both(JudgeBench& direct, JudgeBench& imaged, JudgeBench& spare,
                  failstop::Processor& victim, QuorumGroup& cohort) {
  direct.refresh(victim, &cohort);
  spare.refresh(victim, &cohort);
  imaged.refresh(spare.victim(), spare.cohort());

  const std::uint64_t want_victim = state_digest(victim);
  EXPECT_EQ(state_digest(direct.victim()), want_victim);
  EXPECT_EQ(state_digest(imaged.victim()), want_victim);
  const std::uint64_t want_cohort = state_digest(cohort);
  EXPECT_EQ(state_digest(*direct.cohort()), want_cohort);
  EXPECT_EQ(state_digest(*imaged.cohort()), want_cohort);
}

/// One verdict as a number: the digest of a one-point report.
std::uint64_t verdict(const CrashPoint& point) {
  CrashSweepReport report;
  report.points.push_back(point);
  return report.digest();
}

/// Judges both benches at `frame` (leader killed `quorum_kills` times):
/// one verdict, and one state left behind, since a crash, a recovery and a
/// catch-up read all that a restore copied, derived state included.
/// Returns the direct bench's point.
CrashPoint judge_both(JudgeBench& direct, JudgeBench& imaged, Cycle frame,
                      std::span<const std::uint64_t> fingerprints,
                      std::uint32_t quorum_kills = 1) {
  CrashSweepOptions options;
  options.victim = kVictim;
  options.warm_start = true;
  options.quorum_kills = quorum_kills;
  const CrashPoint got = judge_crash_point(direct.victim(), direct.cohort(),
                                           options, frame, fingerprints);
  const CrashPoint want = judge_crash_point(imaged.victim(), imaged.cohort(),
                                            options, frame, fingerprints);
  EXPECT_EQ(verdict(got), verdict(want));
  EXPECT_EQ(state_digest(direct.victim()), state_digest(imaged.victim()));
  EXPECT_EQ(state_digest(*direct.cohort()), state_digest(*imaged.cohort()));
  return got;
}

/// Runs `mission` one frame, appending the victim's fingerprint.
void run_frame(CrashMission& mission,
               std::vector<std::uint64_t>& fingerprints) {
  mission.system->run(1);
  fingerprints.push_back(victim_of(mission).poll_stable().fingerprint());
}

TEST(LiveRestore, VictimAndCohortAcrossCompactionsMatchTheirImages) {
  constexpr Cycle kFrames = 30;
  // A later, larger state each refresh starts over.
  CrashMission late = chain_mission(3);
  late.system->run(40);

  CrashMission mission = chain_mission(3);
  failstop::Processor& victim = victim_of(mission);
  QuorumGroup& cohort = cohort_of(mission);
  JudgeBench direct(victim, &cohort);
  JudgeBench imaged(victim, &cohort);
  JudgeBench spare(victim, &cohort);
  std::vector<std::uint64_t> fingerprints{victim.poll_stable().fingerprint()};
  std::uint64_t generation = victim.durability()->journal_generation();
  int compactions = 0;
  for (Cycle f = 1; f <= kFrames; ++f) {
    SCOPED_TRACE(f);
    run_frame(mission, fingerprints);
    DurabilityEngine& engine = *victim.durability();
    if (engine.journal_generation() != generation) {
      generation = engine.journal_generation();
      ASSERT_FALSE(engine.retained_tail().empty());
      ++compactions;
    }
    refresh_both(direct, imaged, spare, victim_of(late), cohort_of(late));
    refresh_both(direct, imaged, spare, victim, cohort);
    const CrashPoint point = judge_both(direct, imaged, f, fingerprints);
    EXPECT_TRUE(point.match && point.replica_match);
  }
  EXPECT_GE(compactions, 4);
  EXPECT_GE(mission.system->stats().ship_reseeds, 1u);
}

TEST(LiveRestore, VictimAfterATornTailCrashMatchesItsImage) {
  constexpr Cycle kFrames = 24;
  CrashMission mission = chain_mission(3);
  failstop::Processor& victim = victim_of(mission);
  QuorumGroup& cohort = cohort_of(mission);
  // The source: a bench refreshed from the mission and crashed with a torn
  // tail, so it holds a recovery report, lost epochs and a truncated
  // journal.
  JudgeBench crashed(victim, &cohort);
  JudgeBench direct(victim, &cohort);
  JudgeBench imaged(victim, &cohort);
  JudgeBench spare(victim, &cohort);
  std::vector<std::uint64_t> fingerprints{victim.poll_stable().fingerprint()};
  int truncated = 0;
  for (Cycle f = 1; f <= kFrames; ++f) {
    SCOPED_TRACE(f);
    run_frame(mission, fingerprints);
    crashed.refresh(victim, &cohort);
    crashed.victim().durability()->journal().tear_on_crash(7);
    crashed.victim().fail(f);
    ASSERT_TRUE(crashed.victim().last_recovery().has_value());
    if (crashed.victim().last_recovery()->journal_truncated) ++truncated;

    refresh_both(direct, imaged, spare, crashed.victim(), *crashed.cohort());
    ASSERT_FALSE(direct.victim().running());
    direct.victim().repair(f);
    imaged.victim().repair(f);
    EXPECT_TRUE(judge_both(direct, imaged, f, fingerprints).match);
  }
  EXPECT_GE(truncated, kFrames / 2);
}

TEST(LiveRestore, CohortShrinksAndGrowsLikeItsImage) {
  // Five members: two joined by a membership change and were reseeded
  // (no warm credit); three: the cohort as built.
  constexpr Cycle kFrames = 24;
  constexpr Cycle kChangeAt = 4;
  CrashMission five = chain_mission(3);
  CrashMission three = chain_mission(3);
  std::vector<std::uint64_t> five_fps{
      victim_of(five).poll_stable().fingerprint()};
  std::vector<std::uint64_t> three_fps{
      victim_of(three).poll_stable().fingerprint()};
  for (Cycle f = 1; f <= kChangeAt; ++f) {
    run_frame(five, five_fps);
    run_frame(three, three_fps);
  }
  (void)cohort_of(five).begin_reconfig(2, {});

  // Shrinks: a bench holding five members, restored from three.
  JudgeBench shrinking(victim_of(five), &cohort_of(five));
  JudgeBench shrinking_imaged(victim_of(five), &cohort_of(five));
  // Grows: a bench holding three members, restored from five.
  JudgeBench growing(victim_of(three), &cohort_of(three));
  JudgeBench growing_imaged(victim_of(three), &cohort_of(three));
  // The round trips' spare, reused across both pairs like a sweep's.
  JudgeBench spare(victim_of(three), &cohort_of(three));
  bool uncredited = false;
  for (Cycle f = kChangeAt + 1; f <= kFrames; ++f) {
    SCOPED_TRACE(f);
    run_frame(five, five_fps);
    run_frame(three, three_fps);
    ASSERT_EQ(cohort_of(five).member_count(), 5u);
    for (MemberId id = 3; id < 5; ++id) {
      uncredited = uncredited || !cohort_of(five).member_view(id).warm_credit;
    }

    refresh_both(shrinking, shrinking_imaged, spare, victim_of(five),
                 cohort_of(five));
    refresh_both(shrinking, shrinking_imaged, spare, victim_of(three),
                 cohort_of(three));
    ASSERT_EQ(shrinking.cohort()->member_count(), 3u);
    EXPECT_TRUE(judge_both(shrinking, shrinking_imaged, f, three_fps).match);

    refresh_both(growing, growing_imaged, spare, victim_of(three),
                 cohort_of(three));
    refresh_both(growing, growing_imaged, spare, victim_of(five),
                 cohort_of(five));
    ASSERT_EQ(growing.cohort()->member_count(), 5u);
    EXPECT_TRUE(judge_both(growing, growing_imaged, f, five_fps).match);
  }
  EXPECT_TRUE(uncredited);
}

TEST(LiveRestore, AVerdictHashesAReplicaThatDiffersFromTheRecoveredStore) {
  // A bench that judges a victim on the cohort of the same mission run two
  // frames ahead holds a replica past anything the victim recovers: within
  // one journal generation the catch-up has nothing to ship, and the
  // leader replica keeps its later entries. The verdict must then fail the
  // warm start and carry that replica's own fingerprint.
  constexpr Cycle kFrames = 30;
  CrashMission ours = chain_mission(1, 4096);
  CrashMission ahead = chain_mission(1, 4096);
  ahead.system->run(2);
  failstop::Processor& victim = victim_of(ours);
  JudgeBench bench(victim, &cohort_of(ours));
  CrashSweepOptions options;
  options.victim = kVictim;
  options.warm_start = true;
  std::vector<std::uint64_t> fingerprints{victim.poll_stable().fingerprint()};
  int differing = 0;
  for (Cycle f = 1; f <= kFrames; ++f) {
    SCOPED_TRACE(f);
    run_frame(ours, fingerprints);
    ahead.system->run(1);
    bench.refresh(victim, &cohort_of(ahead));
    const CrashPoint point = judge_crash_point(
        bench.victim(), bench.cohort(), options, f, fingerprints);
    EXPECT_TRUE(point.match);
    const QuorumGroup& cohort = *bench.cohort();
    const StableStorage& replica = cohort.replica(*cohort.leader()).store();
    EXPECT_EQ(point.replica_fingerprint, replica.fingerprint());
    if (!replica.same_committed(bench.victim().poll_stable())) {
      ++differing;
      EXPECT_NE(point.replica_fingerprint, point.recovered_fingerprint);
      EXPECT_FALSE(point.replica_match);
    }
  }
  EXPECT_GE(differing, kFrames / 3);
}

// --- a replica alone -----------------------------------------------------

/// A source engine and its store, committing one frame at a time and
/// syncing every commit.
struct Source {
  std::unique_ptr<DurabilityEngine> engine =
      storage::durable::make_memory_engine();
  StableStorage store;
  Cycle cycle = 0;

  /// Commits `key` = `value` as one frame.
  void commit(const std::string& key, std::int64_t value) {
    store.write(key, value);
    engine->record_commit(store, ++cycle);
    store.commit(cycle);
    engine->after_commit(store);
  }
};

/// A replica with its own standby engine.
std::unique_ptr<ShippedReplica> standby() {
  auto replica = std::make_unique<ShippedReplica>();
  replica->attach_engine(storage::durable::make_memory_engine());
  return replica;
}

/// Ships `source`'s synced journal to `replica` in batches of at most
/// `budget` bytes until nothing is left or `max_batches` went.
void ship(Source& source, ShippedReplica& replica, std::size_t budget,
          int max_batches = 1 << 20) {
  storage::durable::JournalShipper shipper(*source.engine);
  storage::durable::ShipBatch batch;
  for (int i = 0; i < max_batches; ++i) {
    if (shipper.next_batch(replica.cursor(), budget, batch) !=
        storage::durable::ShipStatus::kBatch) {
      return;
    }
    ASSERT_EQ(replica.apply(batch), storage::durable::ApplyStatus::kApplied);
  }
}

TEST(LiveRestore, ReplicaWithAPartialRecordMatchesItsImage) {
  // The source stream names "x" before "y"; the targets' stream named them
  // the other way round, so their dictionary ids map to other names.
  Source source;
  source.commit("x", 1);
  source.commit("y", 2);
  Source other;
  other.commit("y", 20);
  other.commit("x", 10);
  other.commit("y", 21);

  auto live = standby();
  auto direct = standby();
  auto imaged = standby();
  ship(source, *live, 4096);
  ship(other, *direct, 4096);
  ship(other, *imaged, 4096);
  source.commit("x", 3);
  // 12 bytes leave most of the new record pending.
  ship(source, *live, 12, /*max_batches=*/1);
  ASSERT_GT(live->pending_bytes(), 0u);

  direct->restore_state(*live);
  auto spare = standby();
  spare->restore_state(*live);
  imaged->restore_state(*spare);
  const std::uint64_t want = fold_replica(kFnvBasis, *live);
  EXPECT_EQ(fold_replica(kFnvBasis, *direct), want);
  EXPECT_EQ(fold_replica(kFnvBasis, *imaged), want);

  // All three go on applying the source's stream, the partial record
  // first, byte for byte alike.
  for (std::int64_t v = 4; v < 12; ++v) {
    SCOPED_TRACE(v);
    source.commit(v % 2 == 0 ? "y" : "x", v);
    for (ShippedReplica* replica : {live.get(), direct.get(), imaged.get()}) {
      ship(source, *replica, 16);
    }
    EXPECT_EQ(live->store().fingerprint(), source.store.fingerprint());
    const std::uint64_t next = fold_replica(kFnvBasis, *live);
    EXPECT_EQ(fold_replica(kFnvBasis, *direct), next);
    EXPECT_EQ(fold_replica(kFnvBasis, *imaged), next);
  }
}

}  // namespace
}  // namespace arfs::support
