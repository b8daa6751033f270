// Fleet-scale mission sweeps over pooled, checkpoint-seeded systems.
//
// The crash-sweep machinery made whole-system snapshots cheap and exact
// (core::SystemCheckpoint restores bit-identically); the fleet layer turns
// that into the hot-path allocator for massed Monte-Carlo mission sampling:
// instead of paying a full core::System construction per sample, each
// worker leases a pooled mission — built once by the factory, warmed once
// through the shared deterministic prefix — and resets it per sample via
// SystemCheckpoint::restore(). Samples differ only by their fault plan,
// which is a pure function of the sample's seed, so pooled and
// construct-per-sample execution produce bit-identical mission populations
// (the pool-off mode is retained as the ablation oracle).
//
// Determinism contract (inherited from sim::FleetRunner): the report —
// including its order-sensitive FNV digest over every sample's final
// System::digest() — is bit-identical at any thread count, any shard
// count, pooled or not, warmed or not.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "arfs/common/types.hpp"
#include "arfs/core/system.hpp"
#include "arfs/env/factor.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/crash_sweep.hpp"

namespace arfs::support {

/// One reusable mission instance: a factory-built system plus a ladder of
/// whole-system checkpoints over the warm-up prefix [0, warmup], spaced
/// sim::auto_stride(warmup) frames apart: √-tuned, because a reset_to
/// replays the residual frames past its rung (the crash sweep instead
/// rolls forward one frame per point and sizes its intervals by thread
/// count). reset() rewinds to the warm point without reconstruction;
/// reset_to(f) rewinds to any frame of the prefix by restoring the nearest
/// ladder checkpoint at or below f and replaying the residual frames.
class PooledMission {
 public:
  /// Builds the mission and warms it: runs `warmup_frames` frames once
  /// (under the factory's own fault plan — for a shared prefix that plan
  /// must be empty or common to every sample), dropping ladder checkpoints
  /// as it goes. warmup_frames == 0 pools the pristine frame-0 state.
  PooledMission(const MissionFactory& factory, Cycle warmup_frames);

  [[nodiscard]] core::System& system() { return *mission_.system; }
  [[nodiscard]] Cycle warmup_frames() const { return warmup_; }
  [[nodiscard]] std::uint64_t resets() const { return resets_; }

  /// Rewinds to the warm point (frame `warmup_frames`).
  void reset();
  /// Rewinds to frame `frame` of the warm-up prefix. Precondition:
  /// frame <= warmup_frames().
  void reset_to(Cycle frame);

  /// Spills the durable-device bytes of every *cold* ladder rung (all but
  /// the warm point) into `arena` — reset(), the per-sample hot path, never
  /// touches a spilled rung; reset_to() onto one hydrates it back (counted
  /// in hydrations()). Idempotent per rung. Returns bytes spilled.
  std::uint64_t spill_cold(storage::MappedArena& arena);
  /// Cold rungs hydrated back by reset_to() since construction.
  [[nodiscard]] std::uint64_t hydrations() const { return hydrations_; }

 private:
  CrashMission mission_;
  /// (frame, checkpoint) pairs: frame 0, every stride frames, and the warm
  /// point itself; strictly increasing frames.
  std::vector<std::pair<Cycle, core::SystemCheckpoint>> ladder_;
  std::vector<bool> rung_spilled_;  ///< Parallel to ladder_.
  Cycle warmup_ = 0;
  std::uint64_t resets_ = 0;
  std::uint64_t hydrations_ = 0;
};

/// A thread-safe pool of PooledMissions built from one factory. Workers
/// lease a mission for the duration of a chunk of samples and return it on
/// release; the pool grows to at most the number of concurrently active
/// lanes, so a 10^6-sample sweep constructs a handful of systems, not 10^6.
/// The pool mutex is touched once per lease/release — chunk grain, never
/// the per-sample path.
class SystemPool {
 public:
  explicit SystemPool(MissionFactory factory, Cycle warmup_frames = 0);

  /// RAII lease: returns the mission to the pool on destruction.
  class Lease {
   public:
    Lease(SystemPool& pool, std::unique_ptr<PooledMission> mission)
        : pool_(&pool), mission_(std::move(mission)) {}
    ~Lease();
    Lease(Lease&&) noexcept = default;
    Lease& operator=(Lease&&) noexcept = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    [[nodiscard]] PooledMission& mission() { return *mission_; }

   private:
    SystemPool* pool_;
    std::unique_ptr<PooledMission> mission_;
  };

  /// Leases an idle mission, constructing (and warming) a new one only when
  /// every pooled instance is in flight.
  [[nodiscard]] Lease lease();

  /// Enables cold-checkpoint spill: whenever more than `hot_limit` missions
  /// sit idle, the least-recently-used beyond that limit spill their cold
  /// ladder rungs into `arena` (the warm rung always stays hot, so leasing
  /// a spilled mission and reset()-ing it touches no spilled bytes). The
  /// arena must outlive the pool. hot_limit 0 keeps no hot floor — every
  /// idle mission spills.
  void enable_spill(storage::MappedArena& arena, std::size_t hot_limit);

  struct Stats {
    std::uint64_t constructions = 0;  ///< Factory builds the pool paid.
    std::uint64_t leases = 0;         ///< Chunk-grain lease operations.
    std::uint64_t spills = 0;         ///< Missions spilled on give-back.
    std::uint64_t spill_bytes = 0;    ///< Device bytes moved to the arena.
    /// Cold-rung hydrations across *idle* missions (complete once every
    /// lease has been returned — i.e. after a sweep finishes).
    std::uint64_t hydrations = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  friend class Lease;
  void give_back(std::unique_ptr<PooledMission> mission);

  MissionFactory factory_;
  Cycle warmup_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<PooledMission>> idle_;
  storage::MappedArena* spill_arena_ = nullptr;
  std::size_t spill_hot_limit_ = 0;
  Stats stats_;
};

/// Per-sample fault plan: a pure function of the sample's seed. Events must
/// land at or after the sweep's warm-up frame — the warmed prefix is shared
/// by every sample.
using PlanFactory = std::function<sim::FaultPlan(std::uint64_t seed)>;

/// Deterministic per-seed environment campaign over declared factors.
struct EnvPlanParams {
  std::vector<env::FactorSpec> factors;  ///< Candidates (value range used).
  std::size_t changes = 4;               ///< Factor changes per sample.
  Cycle first_frame = 0;                 ///< Earliest event frame (>= warmup).
  Cycle frames = 32;                     ///< Events land in [first, first+frames).
  SimDuration frame_length = 10'000;
};

/// Builds a PlanFactory drawing `changes` uniform factor changes per sample
/// from Rng(seed) — the standard fleet campaign for spec-driven missions.
[[nodiscard]] PlanFactory make_env_plan_factory(EnvPlanParams params);

struct FleetMissionOptions {
  std::size_t samples = 0;
  /// Frames each sample runs beyond the warm point.
  Cycle frames = 32;
  std::uint64_t base_seed = 1;
  /// Shared deterministic prefix, warmed once per pooled system and
  /// replayed per sample when pooling is off. Plan events must land at or
  /// after this frame.
  Cycle warmup_frames = 0;
  /// The tentpole knob: reuse checkpoint-seeded pooled systems (default)
  /// or construct a fresh system per sample (the ablation oracle).
  bool pool_systems = true;
  /// With fleet.options().arena set: idle pooled missions beyond this
  /// count spill their cold checkpoint rungs to the arena (see
  /// SystemPool::enable_spill). 0 disables spilling.
  std::size_t pool_hot_limit = 0;
};

struct FleetMissionReport {
  std::uint64_t samples = 0;
  std::uint64_t frames_run = 0;          ///< Post-warm frames, all samples.
  std::uint64_t fault_events = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t region_relocations = 0;
  std::uint64_t deadline_violations = 0;
  /// Order-sensitive FNV-1a digest over every sample's final
  /// System::digest(), folded per chunk then across chunks in chunk order —
  /// one number to compare any (threads, shards, pooling) execution against
  /// the serial oracle.
  std::uint64_t digest = 0;
  /// Systems actually constructed: pool size when pooling, `samples` when
  /// not — the pool-reuse ablation's headline denominator.
  std::uint64_t systems_constructed = 0;
  /// Checkpoint restores the pooled path performed (0 when pooling is off).
  std::uint64_t pool_resets = 0;

  // --- arena evidence (populated when fleet.options().arena is set) ---
  /// True when per-sample evidence rows went through the arena.
  bool arena_backed = false;
  /// Evidence rows materialized (== samples when arena-backed).
  std::uint64_t evidence_rows = 0;
  /// Digest recomputed by streaming the materialized evidence rows back in
  /// global chunk order with the same per-chunk fold as `digest` — the
  /// round-trip proof that the arena stored exactly what the sweep saw.
  std::uint64_t evidence_digest = 0;
  /// evidence_digest == digest (always true unless storage corrupted).
  bool evidence_matches = false;
  /// Pool spill counters (pool_hot_limit > 0 and arena set).
  std::uint64_t pool_spills = 0;
  std::uint64_t pool_spill_bytes = 0;
  std::uint64_t pool_hydrations = 0;
};

/// One mission sample's audit row (24 bytes, trivially copyable): the final
/// system digest plus the stat deltas the sample contributed — enough to
/// re-derive the sweep report's digest and tallies from storage.
struct MissionEvidence {
  std::uint64_t digest = 0;  ///< Final System::digest() of the sample.
  std::uint32_t fault_events = 0;
  std::uint32_t reconfigurations = 0;
  std::uint32_t region_relocations = 0;
  std::uint32_t deadline_violations = 0;
};

/// Runs `options.samples` independent missions of `factory`'s system, each
/// under `plan_for(seed)`'s fault plan, on the sharded fleet engine.
/// Pooled mode leases warm systems and resets them per sample;
/// construct-per-sample mode builds each mission from scratch and replays
/// the warm-up prefix. Both produce bit-identical reports.
[[nodiscard]] FleetMissionReport run_fleet_missions(
    const MissionFactory& factory, const PlanFactory& plan_for,
    const FleetMissionOptions& options, sim::FleetRunner& fleet);

}  // namespace arfs::support
