#include "arfs/support/crash_sweep.hpp"

#include <algorithm>

#include "arfs/common/check.hpp"
#include "arfs/common/hash.hpp"
#include "arfs/failstop/processor.hpp"

namespace arfs::support {

namespace {

using storage::durable::quorum::QuorumGroup;

/// A mission's judged pair: its victim processor and, under warm_start,
/// the victim's replica cohort (null otherwise).
struct Victim {
  failstop::Processor& processor;
  QuorumGroup* cohort;
};

Victim victim_of(core::System& system, const CrashSweepOptions& options) {
  require(system.processors().has_processor(options.victim),
          "crash sweep victim is not in the system");
  QuorumGroup* cohort = nullptr;
  if (options.warm_start) {
    require(system.has_ship_channel(options.victim),
            "warm-start sweep needs SystemOptions::journal_shipping");
    cohort = &system.quorum_group(options.victim);
  }
  return {system.processors().processor(options.victim), cohort};
}

CrashMission build_mission(const MissionFactory& factory) {
  CrashMission mission = factory();
  require(mission.system != nullptr, "mission factory built no system");
  return mission;
}

/// Runs one frame of `system` and returns the victim's committed-store
/// fingerprint after it: every frame the victim survives commits exactly
/// once, so the fingerprint of commit epoch f is the one after frame f.
std::uint64_t run_committed_frame(core::System& system,
                                  const failstop::Processor& victim) {
  system.run(1);
  require(victim.running(),
          "crash sweep victim was failed by the mission itself");
  return victim.poll_stable().fingerprint();
}

/// From-scratch strategy: every job replays its own mission from frame 0
/// and judges its victim in place.
std::vector<CrashPoint> sweep_from_scratch(const MissionFactory& factory,
                                           const CrashSweepOptions& options,
                                           sim::BatchRunner& runner) {
  return runner.map<CrashPoint>(
      static_cast<std::size_t>(options.frames), [&](std::size_t i) {
        const Cycle crash_frame = static_cast<Cycle>(i) + 1;
        CrashMission mission = build_mission(factory);
        const Victim victim = victim_of(*mission.system, options);
        std::vector<std::uint64_t> fingerprints;
        fingerprints.reserve(static_cast<std::size_t>(crash_frame) + 1);
        fingerprints.push_back(victim.processor.poll_stable().fingerprint());
        for (Cycle f = 0; f < crash_frame; ++f) {
          fingerprints.push_back(
              run_committed_frame(*mission.system, victim.processor));
        }
        return judge_crash_point(victim.processor, victim.cohort, options,
                                 crash_frame, fingerprints);
      });
}

/// Rolling strategy: one interval of crash points per runner thread (at
/// most one per point), each rolled forward by one mission whose victim is
/// judged on a JudgeBench, never crashed. Interval j holds crash frames
/// (start(j), start(j + 1)].
std::vector<CrashPoint> sweep_rolling(const MissionFactory& factory,
                                      const CrashSweepOptions& options,
                                      sim::BatchRunner& runner,
                                      CrashSweepReport& report) {
  const Cycle frames = options.frames;
  const std::size_t jobs = static_cast<std::size_t>(std::min<Cycle>(
      frames, std::max<std::size_t>(1, runner.thread_count())));
  const auto start = [&](std::size_t j) {
    return frames * static_cast<Cycle>(j) / static_cast<Cycle>(jobs);
  };

  // Serial baseline pass up to the last interval's start: the shared
  // fingerprint table (index = commit epoch, index 0 = the empty
  // pre-mission store) and a checkpoint at each inner interval's start —
  // checkpoint j - 1 stands at start(j). The table is sized for the whole
  // mission up front: the last job fills in the entries past its start,
  // which no other job reads.
  CrashMission baseline = build_mission(factory);
  const Victim base = victim_of(*baseline.system, options);
  std::vector<std::uint64_t> fingerprints(
      static_cast<std::size_t>(frames) + 1);
  fingerprints[0] = base.processor.poll_stable().fingerprint();
  std::vector<core::SystemCheckpoint> checkpoints;
  checkpoints.reserve(jobs > 2 ? jobs - 2 : 0);
  Cycle frame = 0;
  for (std::size_t j = 1; j < jobs; ++j) {
    for (; frame < start(j); ++frame) {
      fingerprints[static_cast<std::size_t>(frame) + 1] =
          run_committed_frame(*baseline.system, base.processor);
    }
    if (j + 1 < jobs) checkpoints.push_back(baseline.system->checkpoint());
  }

  // Batch-parallel interval jobs. Job 0 rolls a fresh mission, an inner
  // job a mission restored once to its checkpoint, and the last job the
  // baseline mission itself. Every point runs one frame, refreshes the
  // job's bench from the mission's victim and judges the bench.
  const std::vector<std::vector<CrashPoint>> intervals =
      runner.map<std::vector<CrashPoint>>(jobs, [&](std::size_t j) {
        const bool last = j + 1 == jobs;
        CrashMission own;
        if (!last) {
          own = build_mission(factory);
          if (j > 0) own.system->restore(checkpoints[j - 1]);
        }
        core::System& system = last ? *baseline.system : *own.system;
        const Victim live = victim_of(system, options);
        JudgeBench bench(live.processor, live.cohort);
        std::vector<CrashPoint> points;
        points.reserve(static_cast<std::size_t>(start(j + 1) - start(j)));
        for (Cycle crash_frame = start(j) + 1; crash_frame <= start(j + 1);
             ++crash_frame) {
          const std::uint64_t fingerprint =
              run_committed_frame(system, live.processor);
          if (last) {
            fingerprints[static_cast<std::size_t>(crash_frame)] = fingerprint;
          }
          bench.refresh(live.processor, live.cohort);
          points.push_back(judge_crash_point(bench.victim(), bench.cohort(),
                                             options, crash_frame,
                                             fingerprints));
        }
        return points;
      });

  report.simulated_frames = start(jobs - 1) + frames;
  report.missions_built = jobs;
  // Flattened in crash-frame order, so the report does not depend on how
  // the jobs were scheduled.
  std::vector<CrashPoint> points;
  points.reserve(static_cast<std::size_t>(frames));
  for (const std::vector<CrashPoint>& interval : intervals) {
    points.insert(points.end(), interval.begin(), interval.end());
  }
  return points;
}

}  // namespace

CrashPoint judge_crash_point(failstop::Processor& victim,
                             QuorumGroup* cohort,
                             const CrashSweepOptions& options,
                             Cycle crash_frame,
                             std::span<const std::uint64_t> fingerprints) {
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
    require(cohort != nullptr, "warm-start judge needs the victim's cohort");
    // Quorum adversary: fail-stop the elected leader `quorum_kills` times,
    // re-electing between kills, so the warm start below must be served by
    // a surviving (non-leader-at-crash-time) member's cursor — with no
    // full-copy reseed allowed by the election protocol.
    for (std::uint32_t k = 0; k < options.quorum_kills; ++k) {
      const std::optional<storage::durable::quorum::MemberId> leader =
          cohort->leader();
      require(leader.has_value(), "quorum kills exhausted the cohort");
      (void)cohort->fail_member(*leader);
    }
    const QuorumGroup::Round catch_up =
        cohort->ship_round(victim.poll_stable(), QuorumGroup::kCatchUp);
    const std::optional<storage::durable::quorum::MemberId> leader =
        cohort->leader();
    require(leader.has_value(), "quorum cohort has no live member");
    const storage::StableStorage& replica = cohort->replica(*leader).store();
    point.replica_epoch = replica.commit_epochs();
    // Stores with the same committed entries share a fingerprint, so the
    // recovered store's stands in unless the two differ.
    point.replica_fingerprint = replica.same_committed(victim.poll_stable())
                                    ? point.recovered_fingerprint
                                    : replica.fingerprint();
    point.replica_catchup_bytes = catch_up.bytes;
    point.replica_reseeded = catch_up.reseeds > 0;
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
        cohort->has_majority() && cohort->commit_id() == point.replica_epoch;
  }
  return point;
}

JudgeBench::JudgeBench(const failstop::Processor& victim,
                       const QuorumGroup* cohort)
    : victim_(victim.spare()) {
  require(victim_.durability() != nullptr, "crash sweep victim is not durable");
  if (cohort != nullptr) {
    cohort_.emplace(*victim_.durability(), cohort->options());
  }
}

void JudgeBench::refresh(const failstop::Processor& victim,
                         const QuorumGroup* cohort) {
  victim_.restore_state(victim);
  if (cohort_.has_value()) {
    require(cohort != nullptr, "judge bench refreshed without its cohort");
    cohort_->restore_state(*cohort);
  }
}

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
    report.simulated_frames = options.frames * (options.frames + 1) / 2;
    report.missions_built = options.frames;
  } else {
    report.points = sweep_rolling(factory, options, runner, report);
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
