#include "arfs/support/fleet.hpp"

#include <cstring>
#include <optional>

#include "arfs/common/check.hpp"
#include "arfs/common/hash.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/storage/arena.hpp"

namespace arfs::support {

PooledMission::PooledMission(const MissionFactory& factory,
                             Cycle warmup_frames)
    : mission_(factory()) {
  require(mission_.system != nullptr, "mission factory built no system");
  mission_.system->run(warmup_frames);
  warm_ = std::make_shared<const core::SystemCheckpoint>(
      mission_.system->checkpoint());
}

PooledMission::PooledMission(const MissionFactory& factory,
                             std::shared_ptr<const core::SystemCheckpoint> warm)
    : mission_(factory()), warm_(std::move(warm)) {
  require(mission_.system != nullptr, "mission factory built no system");
  require(warm_ != nullptr, "pooled mission needs a warm image");
  mission_.system->restore(*warm_);
}

void PooledMission::reset() {
  mission_.system->restore(*warm_);
  ++resets_;
}

SystemPool::SystemPool(MissionFactory factory, Cycle warmup_frames)
    : factory_(std::move(factory)), warmup_(warmup_frames) {
  require(static_cast<bool>(factory_), "system pool needs a mission factory");
}

SystemPool::Lease::~Lease() {
  if (mission_ != nullptr) pool_->give_back(std::move(mission_));
}

SystemPool::Lease SystemPool::lease() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.leases;
    if (!idle_.empty()) {
      std::unique_ptr<PooledMission> mission = std::move(idle_.back());
      idle_.pop_back();
      return Lease(*this, std::move(mission));
    }
    ++stats_.constructions;
  }
  // Construct outside the lock: the expensive path must not serialize
  // other lanes' lease/release traffic.
  return Lease(*this, build());
}

std::unique_ptr<PooledMission> SystemPool::build() {
  std::unique_ptr<PooledMission> first;
  std::call_once(warm_once_, [this, &first] {
    first = std::make_unique<PooledMission>(factory_, warmup_);
    std::lock_guard<std::mutex> lock(mutex_);
    warm_ = first->warm();
  });
  if (first != nullptr) return first;
  return std::make_unique<PooledMission>(factory_, warm_);
}

SystemPool::Stats SystemPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::shared_ptr<const core::SystemCheckpoint> SystemPool::warm() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return warm_;
}

void SystemPool::give_back(std::unique_ptr<PooledMission> mission) {
  std::lock_guard<std::mutex> lock(mutex_);
  idle_.push_back(std::move(mission));
}

PlanFactory make_env_plan_factory(EnvPlanParams params) {
  require(!params.factors.empty(), "env plan factory needs factors");
  require(params.frames > 0, "env plan factory needs a positive frame span");
  require(params.frame_length > 0, "frame length must be positive");
  return [params = std::move(params)](std::uint64_t seed) {
    Rng rng(seed);
    sim::FaultPlan plan;
    plan.reserve(params.changes);
    for (std::size_t c = 0; c < params.changes; ++c) {
      const env::FactorSpec& factor =
          params.factors[static_cast<std::size_t>(
              rng.uniform(0, params.factors.size() - 1))];
      const Cycle frame =
          params.first_frame +
          static_cast<Cycle>(rng.uniform(0, params.frames - 1));
      const std::int64_t value =
          factor.min_value +
          static_cast<std::int64_t>(rng.uniform(
              0, static_cast<std::uint64_t>(factor.max_value -
                                            factor.min_value)));
      plan.change_environment(
          static_cast<SimTime>(frame) * params.frame_length, factor.id,
          value);
    }
    return plan;
  };
}

namespace {

/// Per-chunk accumulator: plain tallies plus the chunk's sample-digest
/// stream, and — pooled mode only — the chunk's system lease (chunk-scoped
/// scratch; released at the chunk's last sample, never crosses the fold).
struct MissionAcc {
  std::uint64_t samples = 0;
  std::uint64_t frames_run = 0;
  std::uint64_t fault_events = 0;
  std::uint64_t reconfigurations = 0;
  std::uint64_t region_relocations = 0;
  std::uint64_t deadline_violations = 0;
  std::uint64_t pool_resets = 0;
  std::uint64_t systems_constructed = 0;
  std::uint64_t chunk_digest = kFnvBasis;
  /// Folded stream of chunk digests — only the running total uses it.
  std::uint64_t digest = kFnvBasis;
  std::optional<SystemPool::Lease> lease;
  /// Arena evidence (chunk-scoped scratch, like the lease): the chunk's
  /// open region, its row window, and the next row slot.
  storage::MappedArena::RegionId evidence_region =
      storage::MappedArena::kNoRegion;
  MissionEvidence* evidence_rows = nullptr;
  std::size_t evidence_next = 0;
};

/// Runs the post-warm mission leg on a system standing at the warm point,
/// tallies its stats deltas plus final digest, and returns the sample's
/// evidence row.
MissionEvidence fly_sample(core::System& sys, const PlanFactory& plan_for,
                           const sim::FleetSample& sample, Cycle frames,
                           MissionAcc& acc) {
  const core::SystemStats before = sys.stats();
  const std::uint64_t reconfigs_before =
      sys.scram().stats().reconfigs_completed;
  sys.set_fault_plan(plan_for(sample.seed));
  sys.run(frames);
  const core::SystemStats after = sys.stats();
  MissionEvidence ev;
  ev.digest = sys.digest();
  ev.fault_events = static_cast<std::uint32_t>(
      after.fault_events_applied - before.fault_events_applied);
  ev.reconfigurations = static_cast<std::uint32_t>(
      sys.scram().stats().reconfigs_completed - reconfigs_before);
  ev.region_relocations = static_cast<std::uint32_t>(
      after.region_relocations - before.region_relocations);
  ev.deadline_violations = static_cast<std::uint32_t>(
      after.deadline_violations - before.deadline_violations);
  ++acc.samples;
  acc.frames_run += after.frames_run - before.frames_run;
  acc.fault_events += ev.fault_events;
  acc.reconfigurations += ev.reconfigurations;
  acc.region_relocations += ev.region_relocations;
  acc.deadline_violations += ev.deadline_violations;
  acc.chunk_digest = fnv_mix(acc.chunk_digest, ev.digest);
  return ev;
}

}  // namespace

FleetMissionReport run_fleet_missions(const MissionFactory& factory,
                                      const PlanFactory& plan_for,
                                      const FleetMissionOptions& options,
                                      sim::FleetRunner& fleet) {
  require(static_cast<bool>(factory), "fleet sweep needs a mission factory");
  require(static_cast<bool>(plan_for), "fleet sweep needs a plan factory");
  require(options.frames > 0, "fleet sweep needs a positive mission length");

  const sim::ShardPlan plan = fleet.plan(options.samples);
  SystemPool pool(factory, options.warmup_frames);
  const bool pooled = options.pool_systems;

  // Arena evidence: one region per chunk, written lock-free by the owning
  // worker (slot discipline as in FleetRunner::materialize — a chunk is one
  // job and owns its slot).
  storage::MappedArena* arena = fleet.options().arena;
  std::vector<storage::MappedArena::RegionId> evidence_regions;
  if (arena != nullptr) {
    evidence_regions.assign(plan.chunks(), storage::MappedArena::kNoRegion);
  }

  const auto last_of_chunk = [&plan](std::size_t index) {
    return (index + 1) % plan.chunk() == 0 || index + 1 == plan.samples();
  };

  MissionAcc total = fleet.reduce<MissionAcc>(
      options.samples, options.base_seed,
      [&](const sim::FleetSample& sample, MissionAcc& acc) {
        MissionEvidence ev;
        if (pooled) {
          // Chunk-grain lease: acquired at the chunk's first sample,
          // released at its last — the pool mutex never rides the
          // per-sample path.
          if (!acc.lease.has_value()) acc.lease.emplace(pool.lease());
          PooledMission& mission = acc.lease->mission();
          mission.reset();
          ev = fly_sample(mission.system(), plan_for, sample,
                          options.frames, acc);
          ++acc.pool_resets;
          if (last_of_chunk(sample.index)) acc.lease.reset();
        } else {
          // Ablation oracle: fresh construction plus warm-up replay per
          // sample. Bit-identical to the pooled path — the plan's events
          // all land at or after the warm point.
          CrashMission mission = factory();
          require(mission.system != nullptr,
                  "mission factory built no system");
          if (options.warmup_frames > 0) {
            mission.system->run(options.warmup_frames);
          }
          ev = fly_sample(*mission.system, plan_for, sample,
                          options.frames, acc);
          ++acc.systems_constructed;
        }
        if (arena != nullptr) {
          const std::size_t chunk = sample.index / plan.chunk();
          if (acc.evidence_rows == nullptr) {
            acc.evidence_region = arena->allocate(
                plan.samples_of_chunk(chunk).size() *
                sizeof(MissionEvidence));
            acc.evidence_rows = reinterpret_cast<MissionEvidence*>(
                arena->data(acc.evidence_region));
            acc.evidence_next = 0;
          }
          std::memcpy(acc.evidence_rows + acc.evidence_next, &ev,
                      sizeof(MissionEvidence));
          ++acc.evidence_next;
          if (last_of_chunk(sample.index)) {
            arena->seal(acc.evidence_region);
            evidence_regions[chunk] = acc.evidence_region;
            acc.evidence_region = storage::MappedArena::kNoRegion;
            acc.evidence_rows = nullptr;
          }
        }
      },
      [](MissionAcc& into, MissionAcc& part) {
        into.samples += part.samples;
        into.frames_run += part.frames_run;
        into.fault_events += part.fault_events;
        into.reconfigurations += part.reconfigurations;
        into.region_relocations += part.region_relocations;
        into.deadline_violations += part.deadline_violations;
        into.pool_resets += part.pool_resets;
        into.systems_constructed += part.systems_constructed;
        into.digest = fnv_mix(into.digest, part.chunk_digest);
      });

  FleetMissionReport report;
  report.samples = total.samples;
  report.frames_run = total.frames_run;
  report.fault_events = total.fault_events;
  report.reconfigurations = total.reconfigurations;
  report.region_relocations = total.region_relocations;
  report.deadline_violations = total.deadline_violations;
  report.digest = total.digest;
  report.pool_resets = total.pool_resets;
  report.systems_constructed = pooled ? pool.stats().constructions
                                      : total.systems_constructed;
  if (arena != nullptr) {
    // Round-trip proof: stream the materialized evidence rows back in
    // global chunk order and refold the digest with the exact per-chunk
    // fold reduce() used (per-chunk basis, row digests, chunk mix).
    report.arena_backed = true;
    report.evidence_rows = plan.samples();
    sim::ArenaCursor<MissionEvidence> cursor(*arena, plan,
                                             std::move(evidence_regions));
    std::uint64_t refold = kFnvBasis;
    cursor.for_each_chunk(
        [&](const MissionEvidence* rows, std::size_t n, std::size_t) {
          std::uint64_t h = kFnvBasis;
          for (std::size_t i = 0; i < n; ++i) h = fnv_mix(h, rows[i].digest);
          refold = fnv_mix(refold, h);
        });
    report.evidence_digest = refold;
    report.evidence_matches = report.evidence_digest == report.digest;
  }
  return report;
}

}  // namespace arfs::support
