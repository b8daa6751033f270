// The durability-engine contract (E20): crash-point sweeps under plain
// halts, device faults, warm starts, quorum kills, and the adaptive policy
// recover every crash point exactly, with report digests pinned to recorded
// oracle constants — a change that moves what recovery sees moves a digest.
// Plus the sync-policy edge cases: degenerate watermarks, adaptive clamp
// bounds, SCRAM pressure, forced boundary syncs, the hoisted decode
// scratch, and checkpoint round-trips of the adaptive controller state.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arfs/core/system.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs {
namespace {

using storage::StableStorage;
using storage::durable::DurabilityEngine;
using storage::durable::DurableOptions;
using storage::durable::RecoveryReport;
using storage::durable::SyncMode;
using storage::durable::SyncPolicy;
using storage::durable::kAdaptiveFracBits;
using storage::durable::make_memory_engine;

/// Commits `n` frames of deterministic writes (same shape as the
/// durable_storage_test helper, so cross-suite behavior is comparable).
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

// --- sweep oracle digests ------------------------------------------------

support::MissionFactory chain_factory(SyncPolicy policy,
                                      bool shipping = false,
                                      std::uint32_t quorum = 1) {
  return [policy, shipping, quorum] {
    auto spec =
        std::make_shared<core::ReconfigSpec>(support::make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.journal_shipping = shipping;
    options.quorum_replicas = quorum;
    options.durability.snapshot_every_epochs = 7;
    options.durability.sync = policy;
    auto system = std::make_unique<core::System>(*spec, options);
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

/// Runs the sweep and asserts zero mismatches and a report digest equal,
/// bit for bit, to the recorded oracle.
void expect_sweep_digest(std::uint64_t oracle, SyncPolicy policy,
                         support::CrashSweepOptions options,
                         bool shipping = false, std::uint32_t quorum = 1) {
  const support::CrashSweepReport report = support::run_crash_sweep(
      chain_factory(policy, shipping, quorum), options);
  EXPECT_EQ(report.mismatches, 0u);
  EXPECT_EQ(report.replica_mismatches, 0u);
  EXPECT_EQ(report.digest(), oracle) << std::hex << "got 0x" << report.digest();
}

support::CrashSweepOptions sweep_options(Cycle frames) {
  support::CrashSweepOptions options;
  options.frames = frames;
  options.victim = support::synthetic_processor(0);
  return options;
}

TEST(EngineSweep, PlainSweepDigestsMatchWalOracle) {
  expect_sweep_digest(0xc6dd6608b7d6bca1, SyncPolicy::frames(3),
                      sweep_options(10));
}

TEST(EngineSweep, AdaptivePolicySweepDigestsMatchWalOracle) {
  expect_sweep_digest(0xeffe8aa264539bb9, SyncPolicy::adaptive(),
                      sweep_options(10));
}

TEST(EngineSweep, TornWriteDigestsMatchWalOracle) {
  support::CrashSweepOptions options = sweep_options(10);
  options.io_fault = support::CrashSweepOptions::IoFault::kTornWrite;
  expect_sweep_digest(0x035af903d8c4b891, SyncPolicy::frames(3), options);
}

TEST(EngineSweep, BitFlipDigestsMatchWalOracle) {
  support::CrashSweepOptions options = sweep_options(10);
  options.io_fault = support::CrashSweepOptions::IoFault::kBitFlip;
  expect_sweep_digest(0xdf91008115c27418, SyncPolicy::frames(3), options);
}

TEST(EngineSweep, WarmStartDigestsMatchWalOracle) {
  support::CrashSweepOptions options = sweep_options(10);
  options.warm_start = true;
  expect_sweep_digest(0x96944ce6a47ddfd0, SyncPolicy::frames(3), options,
                      /*shipping=*/true);
}

TEST(EngineSweep, QuorumKillDigestsMatchWalOracle) {
  support::CrashSweepOptions options = sweep_options(8);
  options.warm_start = true;
  options.quorum_kills = 1;
  expect_sweep_digest(0x6b1f9fe026e501b5, SyncPolicy::frames(3), options,
                      /*shipping=*/true, /*quorum=*/3);
}

// --- watermark edge cases -------------------------------------------------

TEST(SyncPolicyEdge, ZeroByteWatermarkSyncsEveryCommit) {
  DurableOptions options;
  options.sync = SyncPolicy::bytes(0);
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 8);
  // A zero watermark is reached by any nonzero lag: every commit syncs,
  // exactly like kEveryCommit.
  EXPECT_EQ(engine->stats().syncs, 8u);
  EXPECT_EQ(engine->stats().lag_bytes, 0u);
  EXPECT_EQ(engine->stats().lag_frames, 0u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 8u);
}

TEST(SyncPolicyEdge, OneByteWatermarkSyncsEveryCommit) {
  DurableOptions options;
  options.sync = SyncPolicy::bytes(1);
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 8);
  EXPECT_EQ(engine->stats().syncs, 8u);
  EXPECT_EQ(engine->stats().max_lag_frames, 1u);
  EXPECT_EQ(engine->stats().lag_bytes, 0u);
}

TEST(SyncPolicyEdge, AdaptiveInitialWatermarkClampsIntoBounds) {
  // Initial below the floor clamps up; initial above the ceiling clamps
  // down. The clamp happens at construction, before any commit.
  DurableOptions low;
  low.sync = SyncPolicy::adaptive(/*initial=*/1, /*min=*/4096, /*max=*/8192);
  auto low_engine = make_memory_engine(low);
  EXPECT_EQ(low_engine->adaptive_watermark_fp(),
            std::uint64_t{4096} << kAdaptiveFracBits);

  DurableOptions high;
  high.sync = SyncPolicy::adaptive(/*initial=*/std::uint64_t{1} << 30,
                                   /*min=*/4096, /*max=*/8192);
  auto high_engine = make_memory_engine(high);
  EXPECT_EQ(high_engine->adaptive_watermark_fp(),
            std::uint64_t{8192} << kAdaptiveFracBits);
}

TEST(SyncPolicyEdge, AdaptiveClimbsAndClampsAtMaxOnSmallCommits) {
  // Every sync under this workload flushes far less than the raise
  // threshold, so the controller climbs until the ceiling clamps it —
  // and never overshoots.
  DurableOptions options;
  options.sync = SyncPolicy::adaptive(/*initial=*/1024, /*min=*/512,
                                      /*max=*/2048, /*frames_ceiling=*/0);
  auto engine = make_memory_engine(options);
  StableStorage store;
  const std::uint64_t hi = std::uint64_t{2048} << kAdaptiveFracBits;
  for (Cycle c = 0; c < 512; ++c) {
    run_commits(*engine, store, c, 1);
    EXPECT_LE(engine->adaptive_watermark_fp(), hi);
  }
  EXPECT_EQ(engine->adaptive_watermark_fp(), hi);
  EXPECT_GT(engine->stats().adaptive_raises, 0u);
  EXPECT_EQ(engine->stats().adaptive_drops, 0u);
  EXPECT_EQ(engine->stats().adaptive_watermark_bytes, 2048u);
}

TEST(SyncPolicyEdge, AdaptiveDropsAndClampsAtMinOnHugeCommits) {
  // Each commit carries ~320 KiB, over the drop threshold in one sync, so
  // the controller backs off 12.5% per sync until the floor clamps it.
  DurableOptions options;
  options.sync = SyncPolicy::adaptive(/*initial=*/256 * 1024, /*min=*/512,
                                      /*max=*/256 * 1024,
                                      /*frames_ceiling=*/0);
  auto engine = make_memory_engine(options);
  StableStorage store;
  const std::string blob(320 * 1024, 'x');
  const std::uint64_t lo = std::uint64_t{512} << kAdaptiveFracBits;
  for (Cycle c = 0; c < 64; ++c) {
    store.write("blob", blob + static_cast<char>('a' + (c % 26)));
    engine->record_commit(store, c);
    store.commit(c);
    engine->after_commit(store);
    EXPECT_GE(engine->adaptive_watermark_fp(), lo);
  }
  EXPECT_EQ(engine->adaptive_watermark_fp(), lo);
  EXPECT_GT(engine->stats().adaptive_drops, 0u);
  EXPECT_EQ(engine->stats().adaptive_watermark_bytes, 512u);
}

TEST(SyncPolicyEdge, ForcedSyncFlushesLagUnderEveryEngine) {
  DurableOptions options;
  options.sync = SyncPolicy::frames(100);  // never reached by 3 commits
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 3);
  ASSERT_EQ(engine->stats().lag_frames, 3u);

  // The halt-boundary sync: the whole buffered tail becomes durable now.
  EXPECT_TRUE(engine->sync_now());
  EXPECT_EQ(engine->stats().forced_syncs, 1u);
  EXPECT_EQ(engine->stats().lag_frames, 0u);
  EXPECT_EQ(engine->stats().last_durable_epoch, 3u);

  // With zero lag it is a no-op, not another device sync.
  EXPECT_TRUE(engine->sync_now());
  EXPECT_EQ(engine->stats().forced_syncs, 1u);
}

TEST(SyncPolicyEdge, ReconfigBoundarySyncsUnderEveryEngine) {
  // System-level: the chain mission reconfigures; every halt boundary must
  // force the victim's lag to zero.
  support::CrashMission mission = chain_factory(SyncPolicy::frames(64))();
  mission.system->run(48);
  DurabilityEngine* engine = mission.system->processors()
                                 .processor(support::synthetic_processor(0))
                                 .durability();
  ASSERT_NE(engine, nullptr);
  EXPECT_GT(engine->stats().forced_syncs, 0u);
}

// --- SCRAM pressure -------------------------------------------------------

TEST(ReconfigPressure, DropsEffectiveWatermarkOnlyInAdaptiveMode) {
  // Adaptive: pressure drops the bar to the floor, so a commit far below
  // the tuned watermark syncs anyway (and is counted as a pressure sync).
  DurableOptions adaptive;
  adaptive.sync = SyncPolicy::adaptive(/*initial=*/64 * 1024, /*min=*/16,
                                       /*max=*/256 * 1024,
                                       /*frames_ceiling=*/0);
  auto pressured = make_memory_engine(adaptive);
  pressured->set_reconfig_pressure(true);
  EXPECT_EQ(pressured->stats().pressure_engagements, 1u);
  StableStorage store;
  run_commits(*pressured, store, 0, 1);
  EXPECT_EQ(pressured->stats().lag_bytes, 0u);
  EXPECT_GT(pressured->stats().pressure_syncs, 0u);

  // Re-asserting pressure is not a new engagement; releasing and
  // re-engaging is.
  pressured->set_reconfig_pressure(true);
  EXPECT_EQ(pressured->stats().pressure_engagements, 1u);
  pressured->set_reconfig_pressure(false);
  pressured->set_reconfig_pressure(true);
  EXPECT_EQ(pressured->stats().pressure_engagements, 2u);

  // Static watermark: pressure must change nothing — the same commit stays
  // in the buffered tail.
  DurableOptions fixed;
  fixed.sync = SyncPolicy::bytes(64 * 1024);
  auto unaffected = make_memory_engine(fixed);
  unaffected->set_reconfig_pressure(true);
  StableStorage other;
  run_commits(*unaffected, other, 0, 1);
  EXPECT_EQ(unaffected->stats().syncs, 0u);
  EXPECT_GT(unaffected->stats().lag_bytes, 0u);
  EXPECT_EQ(unaffected->stats().pressure_syncs, 0u);
}

// --- recovery decode scratch (hoisted buffer) -----------------------------

TEST(RecoveryDecode, ReplayReusesHoistedDecodeBuffer) {
  auto engine = make_memory_engine();  // no snapshot cadence: full replay
  StableStorage store;
  run_commits(*engine, store, 0, 32);
  const std::uint64_t before = store.fingerprint();

  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), before);
  EXPECT_EQ(report.records_applied, 32u);
  // The first decode sizes the scratch; every later record of this replay
  // reuses it instead of allocating.
  EXPECT_GE(engine->stats().decode_buffer_reuses, 31u);
}

// --- adaptive determinism and checkpointing -------------------------------

TEST(AdaptiveDeterminism, IdenticalHistoriesProduceBitIdenticalControllers) {
  DurableOptions options;
  options.sync = SyncPolicy::adaptive();
  options.snapshot_every_epochs = 5;
  auto a = make_memory_engine(options);
  auto b = make_memory_engine(options);
  StableStorage sa;
  StableStorage sb;
  run_commits(*a, sa, 0, 24);
  run_commits(*b, sb, 0, 24);

  // The controller is pure integer state over the commit history: two
  // identical runs agree on every tuning step and every byte.
  EXPECT_EQ(a->adaptive_watermark_fp(), b->adaptive_watermark_fp());
  EXPECT_EQ(a->stats().syncs, b->stats().syncs);
  EXPECT_EQ(a->stats().adaptive_raises, b->stats().adaptive_raises);
  EXPECT_EQ(a->stats().adaptive_drops, b->stats().adaptive_drops);

  a->crash();
  b->crash();
  StableStorage ra;
  StableStorage rb;
  (void)a->recover_into(ra);
  (void)b->recover_into(rb);
  EXPECT_EQ(ra.fingerprint(), rb.fingerprint());
}

TEST(EngineCheckpointing, AdaptiveControllerStateRoundTrips) {
  DurableOptions options;
  options.sync = SyncPolicy::adaptive();
  options.snapshot_every_epochs = 4;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 0, 12);
  engine->set_reconfig_pressure(true);

  // The checkpoint: a spare engine with the same options, copied from the
  // live one.
  const std::unique_ptr<DurabilityEngine> spare = make_memory_engine(options);
  spare->restore_state(*engine);
  EXPECT_EQ(spare->adaptive_watermark_fp(), engine->adaptive_watermark_fp());
  EXPECT_TRUE(spare->reconfig_pressure());
  const std::uint64_t fp_at_cp = engine->adaptive_watermark_fp();
  const std::uint64_t fingerprint_at_cp = store.fingerprint();

  // Diverge: release pressure, run more history, let the controller move.
  engine->set_reconfig_pressure(false);
  run_commits(*engine, store, 12, 24);

  // Restore rewinds the controller along with the devices.
  engine->restore_state(*spare);
  EXPECT_EQ(engine->adaptive_watermark_fp(), fp_at_cp);
  EXPECT_TRUE(engine->reconfig_pressure());

  engine->crash();
  StableStorage recovered;
  const RecoveryReport report = engine->recover_into(recovered);
  EXPECT_EQ(recovered.fingerprint(), fingerprint_at_cp);
  EXPECT_EQ(report.last_epoch, 12u);
}

}  // namespace
}  // namespace arfs
