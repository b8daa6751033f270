#include "arfs/support/crash_sweep.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "arfs/common/check.hpp"
#include "arfs/common/hash.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/storage/arena.hpp"

namespace arfs::support {

namespace {

/// One crash point's verdict: arms the device fault, fail-stops the victim
/// (recovery runs inside fail()), and checks the recovered — and, under
/// warm_start, the replicated — state against the shared fingerprint table.
/// `system` must stand exactly at `crash_frame` frames run. The victim is
/// fetched once, mutably; every check reads through that same reference.
CrashPoint judge_crash_point(core::System& system,
                             const CrashSweepOptions& options,
                             Cycle crash_frame,
                             const std::vector<std::uint64_t>& fingerprints) {
  failstop::Processor& victim =
      system.processors().processor(options.victim);
  require(victim.running(),
          "crash sweep victim was failed by the mission itself");
  storage::durable::DurabilityEngine* engine = victim.durability();
  require(engine != nullptr, "crash sweep victim is not durable");
  const std::uint64_t durable_epoch = engine->stats().last_durable_epoch;

  // Arm the crash-time device fault, if any. The bit flip lands at a
  // position derived from the crash frame, so the sweep exercises a
  // different (deterministic) corruption site at every point.
  switch (options.io_fault) {
    case CrashSweepOptions::IoFault::kNone:
      break;
    case CrashSweepOptions::IoFault::kTornWrite:
      engine->journal().tear_on_crash(options.tear_keep);
      break;
    case CrashSweepOptions::IoFault::kBitFlip:
      engine->journal().corrupt_bit(0x9E3779B97F4A7C15ULL *
                                    (std::uint64_t{crash_frame} + 1));
      break;
  }

  // The fail-stop halt: devices lose their unsynced tail, recovery runs
  // inside fail(), and poll_stable() shows the recovered store.
  victim.fail(crash_frame);

  CrashPoint point;
  point.crash_frame = crash_frame;
  point.durable_epoch = durable_epoch;
  point.expected_fingerprint =
      fingerprints[static_cast<std::size_t>(durable_epoch)];
  point.recovered_fingerprint = victim.poll_stable().fingerprint();
  const auto& recovery = victim.last_recovery();
  point.recovered_epoch = recovery.has_value() ? recovery->last_epoch : 0;
  point.journal_truncated =
      recovery.has_value() && recovery->journal_truncated;
  // The floor must hold, the recovered epoch must be a real frame of this
  // mission, and the recovered bytes must be exactly that frame's committed
  // state. A bit flip may corrupt *synced* records, so it alone is excused
  // from the durable-epoch floor — recovery must still land on an exact
  // commit boundary.
  const bool floor_ok =
      options.io_fault == CrashSweepOptions::IoFault::kBitFlip ||
      point.recovered_epoch >= durable_epoch;
  point.match = recovery.has_value() && floor_ok &&
                point.recovered_epoch <= crash_frame &&
                point.recovered_fingerprint ==
                    fingerprints[static_cast<std::size_t>(
                        point.recovered_epoch)];
  point.lost_frames = point.recovered_epoch <= crash_frame
                          ? crash_frame - point.recovered_epoch
                          : 0;

  if (options.warm_start) {
    // Warm-start relocation check: drain the victim's replica cohort and
    // require the leader's replica to be bit-identical to the recovered
    // commit boundary — the state a relocated app would warm-start from.
    require(system.has_ship_channel(options.victim),
            "warm-start sweep needs SystemOptions::journal_shipping");
    const storage::durable::quorum::QuorumGroup& group =
        system.quorum_group(options.victim);
    // Quorum adversary: fail-stop the elected leader `quorum_kills` times,
    // re-electing between kills, so the warm start below must be served by
    // a surviving (non-leader-at-crash-time) member's cursor — with no
    // full-copy reseed allowed by the election protocol.
    for (std::uint32_t k = 0; k < options.quorum_kills; ++k) {
      const std::optional<storage::durable::quorum::MemberId> leader =
          group.leader();
      require(leader.has_value(), "quorum kills exhausted the cohort");
      system.fail_quorum_member(options.victim, *leader);
    }
    const core::System::ShipCatchUp catch_up =
        system.ship_catch_up(options.victim);
    const storage::durable::ShippedReplica& replica =
        system.ship_replica(options.victim);
    point.replica_epoch = replica.store().commit_epochs();
    point.replica_fingerprint = replica.store().fingerprint();
    point.replica_catchup_bytes = catch_up.bytes;
    point.replica_reseeded = catch_up.reseeded;
    // Commit-rule check: the cohort must still hold a live majority and
    // its majority-acknowledged boundary must be exactly the epoch the warm
    // start served. After a full catch-up of every live member the two
    // coincide whenever the majority survived; at one replica the
    // commit-rule conjuncts are identically true.
    point.replica_match =
        point.replica_epoch <= crash_frame &&
        point.replica_fingerprint == point.recovered_fingerprint &&
        point.replica_fingerprint ==
            fingerprints[static_cast<std::size_t>(point.replica_epoch)] &&
        group.has_majority() && group.commit_id() == point.replica_epoch;
  }
  return point;
}

/// Interval jobs per worker when the stride is auto-sized. Every crash
/// point of the rolling sweep costs the same, so a few even intervals per
/// worker balance the pool; more would only build more missions and take
/// more checkpoints.
constexpr Cycle kIntervalsPerWorker = 4;

/// The auto stride: ⌈frames / (kIntervalsPerWorker · threads)⌉, at least 1.
Cycle interval_stride(Cycle frames, std::size_t threads) {
  const Cycle intervals =
      kIntervalsPerWorker * std::max<Cycle>(1, static_cast<Cycle>(threads));
  return std::max<Cycle>(1, (frames + intervals - 1) / intervals);
}

/// From-scratch strategy: every job replays its own mission from frame 0.
std::vector<CrashPoint> sweep_from_scratch(const MissionFactory& factory,
                                           const CrashSweepOptions& options,
                                           sim::BatchRunner& runner) {
  return runner.map<CrashPoint>(
      static_cast<std::size_t>(options.frames), [&](std::size_t i) {
        const Cycle crash_frame = static_cast<Cycle>(i) + 1;
        CrashMission mission = factory();
        require(mission.system != nullptr, "mission factory built no system");
        core::System& system = *mission.system;
        require(system.processors().has_processor(options.victim),
                "crash sweep victim is not in the system");

        // Fingerprint of the victim's committed store after each commit
        // epoch; index 0 is the empty pre-mission store. Every frame the
        // victim survives commits exactly once, so epoch == frames run.
        const failstop::Processor& victim =
            system.processors().processor(options.victim);
        std::vector<std::uint64_t> fingerprints;
        fingerprints.reserve(static_cast<std::size_t>(crash_frame) + 1);
        fingerprints.push_back(victim.poll_stable().fingerprint());
        for (Cycle f = 0; f < crash_frame; ++f) {
          system.run(1);
          fingerprints.push_back(victim.poll_stable().fingerprint());
          require(victim.running(),
                  "crash sweep victim was failed by the mission itself");
        }
        return judge_crash_point(system, options, crash_frame, fingerprints);
      });
}

}  // namespace

std::uint64_t CrashSweepReport::digest() const {
  std::uint64_t h = kFnvBasis;
  for (const CrashPoint& p : points) {
    h = fnv_mix(h, p.crash_frame);
    h = fnv_mix(h, p.expected_fingerprint);
    h = fnv_mix(h, p.recovered_fingerprint);
    h = fnv_mix(h, p.durable_epoch);
    h = fnv_mix(h, p.recovered_epoch);
    h = fnv_mix(h, p.lost_frames);
    h = fnv_mix(h, (p.journal_truncated ? 2u : 0u) | (p.match ? 1u : 0u));
    h = fnv_mix(h, p.replica_epoch);
    h = fnv_mix(h, p.replica_fingerprint);
    h = fnv_mix(h, p.replica_catchup_bytes);
    h = fnv_mix(h,
                (p.replica_reseeded ? 2u : 0u) | (p.replica_match ? 1u : 0u));
  }
  return h;
}

CrashSweepReport run_crash_sweep(const MissionFactory& factory,
                                 const CrashSweepOptions& options,
                                 sim::BatchRunner& runner) {
  require(options.frames > 0, "crash sweep needs at least one frame");
  require(static_cast<bool>(factory), "crash sweep needs a mission factory");

  CrashSweepReport report;
  if (!options.checkpointing) {
    report.points = sweep_from_scratch(factory, options, runner);
    report.simulated_frames =
        options.frames * (options.frames + 1) / 2;
    report.missions_built = options.frames;
  } else {
    const Cycle stride =
        options.checkpoint_stride > 0
            ? options.checkpoint_stride
            : interval_stride(options.frames, runner.thread_count());

    // Serial baseline pass: run the mission once end to end, recording the
    // shared commit-boundary fingerprint table (index = commit epoch,
    // index 0 = empty pre-mission store) and freezing a whole-system
    // checkpoint at the start of every interval — checkpoint j stands at
    // frame j·K. No interval starts at frame F.
    CrashMission baseline = factory();
    require(baseline.system != nullptr, "mission factory built no system");
    core::System& base_system = *baseline.system;
    require(base_system.processors().has_processor(options.victim),
            "crash sweep victim is not in the system");
    const failstop::Processor& victim =
        base_system.processors().processor(options.victim);

    std::vector<std::uint64_t> fingerprints;
    fingerprints.reserve(static_cast<std::size_t>(options.frames) + 1);
    fingerprints.push_back(victim.poll_stable().fingerprint());
    std::vector<core::SystemCheckpoint> checkpoints;
    checkpoints.reserve(
        static_cast<std::size_t>((options.frames + stride - 1) / stride));
    checkpoints.push_back(base_system.checkpoint());
    for (Cycle f = 1; f <= options.frames; ++f) {
      base_system.run(1);
      fingerprints.push_back(victim.poll_stable().fingerprint());
      require(victim.running(),
              "crash sweep victim was failed by the mission itself");
      if (f % stride == 0 && f < options.frames) {
        checkpoints.push_back(base_system.checkpoint());
      }
    }

    // Batch-parallel interval jobs. Job j owns crash frames (jK, (j+1)K]
    // and checkpoint j, which no other job touches. It builds one mission,
    // restores checkpoint j once, and rolls forward: for each crash point
    // it runs one frame, refreshes checkpoint j to that frame in place,
    // judges the point (a crashed victim, a failed cohort leader) and
    // restores the refreshed checkpoint, so the next point starts one
    // frame further on from exactly the mission's state. The fingerprint
    // table is shared read-only across jobs.
    const std::vector<std::vector<CrashPoint>> intervals =
        runner.map<std::vector<CrashPoint>>(
            checkpoints.size(), [&](std::size_t j) {
              const Cycle base_frame = static_cast<Cycle>(j) * stride;
              const Cycle last =
                  std::min<Cycle>(base_frame + stride, options.frames);
              CrashMission mission = factory();
              require(mission.system != nullptr,
                      "mission factory built no system");
              core::System& system = *mission.system;
              core::SystemCheckpoint& rolling = checkpoints[j];
              system.restore(rolling);
              std::vector<CrashPoint> points;
              points.reserve(static_cast<std::size_t>(last - base_frame));
              for (Cycle crash_frame = base_frame + 1; crash_frame <= last;
                   ++crash_frame) {
                system.run(1);
                system.checkpoint_into(rolling);
                points.push_back(judge_crash_point(system, options,
                                                   crash_frame, fingerprints));
                system.restore(rolling);
              }
              return points;
            });

    // Flattened in crash-frame order, so the report does not depend on how
    // the jobs were scheduled.
    report.points.reserve(static_cast<std::size_t>(options.frames));
    for (const std::vector<CrashPoint>& interval : intervals) {
      report.points.insert(report.points.end(), interval.begin(),
                           interval.end());
    }
    // The baseline pass plus one rolled frame per crash point.
    report.simulated_frames = 2 * options.frames;
    report.missions_built = 1 + intervals.size();
    report.checkpoints_taken = checkpoints.size();
    report.stride_used = stride;
  }

  if (options.arena != nullptr && !report.points.empty()) {
    // Round-trip the point table through one CRC-guarded arena region and
    // rebuild the report from the re-read bytes: the digest below is then
    // computed from what storage actually holds, not the in-RAM originals.
    static_assert(std::is_trivially_copyable_v<CrashPoint>,
                  "arena rows are raw bytes");
    storage::MappedArena& arena = *options.arena;
    const std::size_t bytes = report.points.size() * sizeof(CrashPoint);
    const storage::MappedArena::RegionId rid = arena.allocate(bytes);
    std::memcpy(arena.data(rid), report.points.data(), bytes);
    arena.seal(rid);
    std::size_t stored = 0;
    const std::uint8_t* raw = arena.read(rid, &stored);
    ensure(stored == bytes, "crash sweep arena region size mismatch");
    std::memcpy(report.points.data(), raw, bytes);
    arena.release(rid);
    report.arena_backed = true;
  }

  for (const CrashPoint& point : report.points) {
    if (!point.match) ++report.mismatches;
    if (options.warm_start && !point.replica_match) {
      ++report.replica_mismatches;
    }
    report.max_lost_frames =
        std::max(report.max_lost_frames, point.lost_frames);
    report.max_replica_catchup_bytes =
        std::max(report.max_replica_catchup_bytes,
                 point.replica_catchup_bytes);
    if (point.replica_reseeded) ++report.replica_reseeds;
  }
  return report;
}

}  // namespace arfs::support
