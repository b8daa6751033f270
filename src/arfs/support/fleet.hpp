// Fleet-scale mission sweeps over pooled, checkpoint-seeded systems.
//
// The crash-sweep machinery made whole-system snapshots cheap and exact
// (core::SystemCheckpoint restores bit-identically); the fleet layer turns
// that into the hot-path allocator for massed Monte-Carlo mission sampling:
// instead of paying a full core::System construction per sample, each
// worker leases a pooled mission — built once by the factory and restored
// to the pool's one warm image, which the pool's first mission took after
// running the shared deterministic prefix — and resets it per sample via
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

/// One reusable mission instance: a factory-built system plus the
/// whole-system checkpoint of its warm point. reset() rewinds to it without
/// reconstruction. The image is shared and read-only: every mission of a
/// SystemPool resets from the pool's one image, from any thread.
class PooledMission {
 public:
  /// Builds the mission and warms it: runs `warmup_frames` frames once
  /// (under the factory's own fault plan — for a shared prefix that plan
  /// must be empty or common to every sample), then checkpoints the warm
  /// point into an image of its own. warmup_frames == 0 pools the pristine
  /// frame-0 state.
  PooledMission(const MissionFactory& factory, Cycle warmup_frames);
  /// Builds the mission and restores it to `warm`, an image of a mission
  /// the same factory built; it resets to that image from then on.
  PooledMission(const MissionFactory& factory,
                std::shared_ptr<const core::SystemCheckpoint> warm);

  [[nodiscard]] core::System& system() { return *mission_.system; }
  [[nodiscard]] std::uint64_t resets() const { return resets_; }
  /// The image reset() restores.
  [[nodiscard]] const std::shared_ptr<const core::SystemCheckpoint>& warm()
      const {
    return warm_;
  }

  /// Rewinds to the warm point (frame `warmup_frames`).
  void reset();

 private:
  CrashMission mission_;
  std::shared_ptr<const core::SystemCheckpoint> warm_;
  std::uint64_t resets_ = 0;
};

/// A thread-safe pool of PooledMissions built from one factory. Workers
/// lease a mission for the duration of a chunk of samples and return it on
/// release; the pool grows to at most the number of concurrently active
/// lanes, so a 10^6-sample sweep constructs a handful of systems, not 10^6.
/// The pool mutex is touched once per lease/release — chunk grain, never
/// the per-sample path.
///
/// The pool keeps one warm image. Its first mission warms by replay and
/// its checkpoint becomes the pool's; every later mission is built by the
/// factory and restored from that image, and every mission resets from it.
/// Concurrent first leases build one first mission: the others wait for
/// its image, then restore theirs from it.
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

  struct Stats {
    std::uint64_t constructions = 0;  ///< Factory builds the pool paid.
    std::uint64_t leases = 0;         ///< Chunk-grain lease operations.
  };
  [[nodiscard]] Stats stats() const;

  /// The pool's warm image; null until the first lease has built it.
  [[nodiscard]] std::shared_ptr<const core::SystemCheckpoint> warm() const;

 private:
  friend class Lease;
  void give_back(std::unique_ptr<PooledMission> mission);
  /// Builds one mission: the first warms by replay and publishes its image,
  /// every other one restores from that image.
  [[nodiscard]] std::unique_ptr<PooledMission> build();

  MissionFactory factory_;
  Cycle warmup_;
  std::once_flag warm_once_;
  /// Set once, inside warm_once_ and under mutex_: build() reads it after
  /// warm_once_, warm() under mutex_.
  std::shared_ptr<const core::SystemCheckpoint> warm_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<PooledMission>> idle_;
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
/// Each plan makes one allocation: its event vector, reserved up front.
[[nodiscard]] PlanFactory make_env_plan_factory(EnvPlanParams params);

struct FleetMissionOptions {
  std::size_t samples = 0;
  /// Frames each sample runs beyond the warm point.
  Cycle frames = 32;
  std::uint64_t base_seed = 1;
  /// Shared deterministic prefix, warmed once per pool and replayed per
  /// sample when pooling is off. Plan events must land at or after this
  /// frame.
  Cycle warmup_frames = 0;
  /// The tentpole knob: reuse checkpoint-seeded pooled systems (default)
  /// or construct a fresh system per sample (the ablation oracle).
  bool pool_systems = true;
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
