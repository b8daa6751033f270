// crash_sweep: the checkpointed crash-point sweep of the paper's section 7
// UAV mission (autopilot + FCS), with the power factor cycling Full ->
// Reduced -> Minimal -> Full about every 45 frames over 512 frames. Storage
// is the WAL durable engine (SyncPolicy::frames(4), snapshots) shipping its
// journal to one warm standby; every crash point also verifies warm start.
// One op is one crash point verified. Journal encoding and syncs, recovery
// replay, device fork/restore and shipping catch-up dominate, not per-app
// work — the durable write *and* read paths fleet_wide never touches.
#include <memory>
#include <utility>
#include <vector>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/core/system.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/mission.hpp"
#include "bench.hpp"
#include "oracles.hpp"

namespace perfbench {
namespace {

using namespace arfs;
using storage::durable::SyncPolicy;

constexpr Cycle kMissionFrames = 512;
constexpr Cycle kPowerPeriod = 45;
constexpr Cycle kPowerJitter = 6;
constexpr Cycle kWarmFrames = 128;
/// Distinct missions per run; blocks cycle through them. Each one costs a
/// from-scratch oracle sweep when its digest is not recorded.
constexpr std::size_t kMissions = 2;
/// Sweeps (512 ops each) per second of --seconds.
constexpr double kSweepsPerSecond = 12.0;

/// One seed-drawn mission: plant noise seed plus the power-state schedule.
struct MissionDraw {
  std::uint64_t plant_seed = 0;
  std::vector<std::pair<Cycle, std::int64_t>> power;
};

MissionDraw draw_mission(std::uint64_t seed) {
  Rng rng(seed);
  MissionDraw draw;
  draw.plant_seed = rng.next_u64();
  // Full(0) -> Reduced(1) -> Minimal(2) -> Full(0) -> ...
  std::int64_t level = 0;
  Cycle frame = 0;
  while (true) {
    frame += kPowerPeriod - kPowerJitter + rng.uniform(0, 2 * kPowerJitter);
    if (frame >= kMissionFrames) break;
    level = (level + 1) % 3;
    draw.power.emplace_back(frame, level);
  }
  return draw;
}

support::MissionFactory uav_factory(const MissionDraw& draw) {
  return [draw] {
    struct Bundle {
      core::ReconfigSpec spec;
      avionics::UavPlant plant;
      Bundle(core::ReconfigSpec s, std::uint64_t seed)
          : spec(std::move(s)), plant(seed) {}
    };
    avionics::UavSpecOptions spec_options;
    spec_options.dwell_frames = 10;
    auto bundle = std::make_shared<Bundle>(
        avionics::make_uav_spec(spec_options), draw.plant_seed);

    core::SystemOptions options;
    options.frame_length = 20'000;
    options.durable_storage = true;
    options.journal_shipping = true;
    options.durability.snapshot_every_epochs = 16;
    options.durability.sync = SyncPolicy::frames(4);
    auto system = std::make_unique<core::System>(bundle->spec, options);
    system->add_app(std::make_unique<avionics::AutopilotApp>(bundle->plant));
    system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));

    support::MissionProfile profile(options.frame_length);
    for (const auto& [frame, level] : draw.power) {
      profile.at(frame, avionics::kPowerFactor, level);
    }
    system->set_fault_plan(profile.build());

    support::CrashMission mission;
    mission.keepalive = bundle;
    mission.system = std::move(system);
    return mission;
  };
}

support::CrashSweepOptions sweep_options(Cycle frames) {
  support::CrashSweepOptions options;
  options.frames = frames;
  options.victim = avionics::kComputer1;
  options.warm_start = true;
  return options;
}

class CrashSweep final : public Workload {
 public:
  CrashSweep(const RunConfig& config, Tracer& tracer)
      : config_(config), tracer_(tracer) {
    const auto nominal = static_cast<std::size_t>(
        kSweepsPerSecond * config.seconds + 0.5);
    blocks_per_segment_ = std::max<std::size_t>(
        1, (nominal + kSegments - 1) / kSegments);
    const std::size_t sweeps = blocks_per_segment_ * kSegments;
    for (std::size_t m = 0; m < kMissions; ++m) {
      draws_.push_back(draw_mission(sim::job_seed(config.seed, m)));
    }
    if (config.trace) {
      tracer_.enable(sweeps * (kMissionFrames * 2 + 64));
    }
  }

  std::size_t blocks_per_segment() const override {
    return blocks_per_segment_;
  }

  void setup(std::size_t) override {
    runner_ = std::make_unique<sim::BatchRunner>(sim::BatchOptions{1, 0});
    for (const MissionDraw& draw : draws_) {
      support::MissionFactory inner = uav_factory(draw);
      // Every factory callback the sweep makes is one support.factory span.
      factories_.push_back([this, inner = std::move(inner)] {
        ++factory_calls_;
        Tracer::Scope s(tracer_, SpanName::kFactory);
        return inner();
      });
    }
    // Untimed warm-up pass: a short sweep through the same path.
    const support::CrashSweepReport warm = support::run_crash_sweep(
        factories_[0], sweep_options(kWarmFrames), *runner_);
    if (!warm.all_match()) {
      throw std::runtime_error("warm-up crash sweep failed its checks");
    }
  }

  std::uint64_t run_block(std::size_t segment, std::size_t block) override {
    const std::size_t index = segment * blocks_per_segment_ + block;
    const std::size_t m = index % kMissions;
    const std::uint64_t calls_before = factory_calls_;
    support::CrashSweepReport report;
    {
      tracer_.set_op(index);
      Tracer::Scope s(tracer_, SpanName::kCrashSweep);
      report = support::run_crash_sweep(
          factories_[m], sweep_options(kMissionFrames), *runner_);
      s.items(report.points.size());
    }
    timed_factory_calls_ += factory_calls_ - calls_before;
    fnv_mix(run_digest_, report.digest());
    mission_of_block_.push_back(m);
    for (const support::CrashPoint& p : report.points) {
      if (!p.match || !p.replica_match) ++failed_ops_;
      catchup_bytes_ += p.replica_catchup_bytes;
    }
    simulated_frames_ += report.simulated_frames;
    reseeds_ += report.replica_reseeds;
    lost_frames_max_ = std::max(lost_frames_max_, report.max_lost_frames);
    const std::size_t ops = report.points.size();
    last_report_ = std::move(report);
    return ops;
  }

  void after_block(std::size_t segment, std::size_t block) override {
    const std::size_t index = segment * blocks_per_segment_ + block;
    replay(index % kMissions, index, last_report_);
  }

  void teardown() override {
    runner_.reset();
    factories_.clear();
  }

  LatencyHistogram& frames() override { return frames_; }

  void finish(const std::vector<Tracer::Totals>& totals,
              RunResult& result) override {
    result.failed += failed_ops_;
    if (failed_ops_ > 0) {
      result.correct = false;
      result.problems.push_back(std::to_string(failed_ops_) +
                                " crash points broke the recovery or "
                                "replica match");
    }
    if (replay_mismatches_ > 0) {
      result.correct = false;
      result.problems.push_back(std::to_string(replay_mismatches_) +
                                " replays disagreed with their sweep");
    }
    result.run_digest = run_digest_;
    gate_digest(config_,
                recorded_oracle("crash_sweep", config_.seed, config_.seconds),
                [&] { return oracle_digest(); }, result);

    const auto t = [&](SpanName n) -> const Tracer::Totals& {
      return totals[static_cast<std::size_t>(n)];
    };
    const double ops = static_cast<double>(result.attempted);
    const Tracer::Totals& sweep = t(SpanName::kCrashSweep);
    set_layer(result, "support.crash_sweep.self_us",
              sweep.items > 0 ? static_cast<double>(sweep.self_ns) / 1e3 /
                                    static_cast<double>(sweep.items)
                              : 0.0);
    set_layer(result, "support.factory_us", per_call_us(t(SpanName::kFactory)));
    set_layer(result, "support.factory_calls_per_op",
              static_cast<double>(timed_factory_calls_) / ops);
    set_layer(result, "support.simulated_frames_per_op",
              static_cast<double>(simulated_frames_) / ops);
    set_layer(result, "core.run_frame_us", per_call_us(t(SpanName::kRunFrame)));
    set_layer(result, "core.run_frame.allocs",
              per_call_allocs(t(SpanName::kRunFrame)));
    set_layer(result, "core.checkpoint_us",
              per_call_us(t(SpanName::kCheckpoint)));
    set_layer(result, "core.restore_us", per_call_us(t(SpanName::kRestore)));
    set_layer(result, "core.restore.allocs",
              per_call_allocs(t(SpanName::kRestore)));
    set_layer(result, "storage.durable.recover_us",
              per_call_us(t(SpanName::kRecover)));
    set_layer(result, "bus.catch_up_us", per_call_us(t(SpanName::kCatchUp)));
    const double frames = static_cast<double>(replay_frames_);
    set_layer(result, "storage.durable.journal_bytes_per_frame",
              static_cast<double>(journal_bytes_) / frames);
    set_layer(result, "storage.durable.syncs_per_frame",
              static_cast<double>(syncs_) / frames);
    set_layer(result, "storage.durable.forced_syncs_per_frame",
              static_cast<double>(forced_syncs_) / frames);
    set_layer(result, "storage.durable.snapshots_per_frame",
              static_cast<double>(snapshots_) / frames);
    set_layer(result, "bus.ship_bytes_per_frame",
              static_cast<double>(ship_bytes_) / frames);
    set_layer(result, "bus.catchup_bytes_per_op",
              static_cast<double>(catchup_bytes_) / ops);
    set_layer(result, "bus.reseeds", static_cast<double>(reseeds_));
    set_layer(result, "storage.durable.lost_frames_max",
              static_cast<double>(lost_frames_max_));
  }

 private:
  /// Re-runs the block's mission through public calls, timing every frame
  /// as the caller sees it, then replays one crash point's steps: restore
  /// the nearest checkpoint, run the residual frames, fail-stop the victim
  /// (durable recovery) and catch its standby up. The recovered and replica
  /// fingerprints must equal what the sweep reported for that point.
  void replay(std::size_t m, std::size_t index,
              const support::CrashSweepReport& report) {
    support::CrashMission mission = uav_factory(draws_[m])();
    core::System& sys = *mission.system;
    failstop::Processor& victim =
        sys.processors().processor(avionics::kComputer1);
    const Cycle stride = sim::auto_stride(kMissionFrames);
    std::vector<core::SystemCheckpoint> checkpoints;
    {
      Tracer::Scope s(tracer_, SpanName::kCheckpoint);
      checkpoints.push_back(sys.checkpoint());
    }
    for (Cycle f = 0; f < kMissionFrames; ++f) {
      {
        Tracer::Scope s(tracer_, SpanName::kRunFrame);
        const std::int64_t start = now_ns();
        sys.run_frame();
        frames_.record(static_cast<std::uint64_t>(now_ns() - start));
      }
      if ((f + 1) % stride == 0) {
        Tracer::Scope s(tracer_, SpanName::kCheckpoint);
        checkpoints.push_back(sys.checkpoint());
      }
    }
    const storage::durable::DurabilityStats& ds = victim.durability()->stats();
    journal_bytes_ += ds.bytes_appended;
    syncs_ += ds.syncs;
    forced_syncs_ += ds.forced_syncs;
    snapshots_ += ds.snapshots_taken;
    ship_bytes_ += sys.stats().ship_bytes_total;
    replay_frames_ += kMissionFrames;

    const Cycle crash = 1 + static_cast<Cycle>(
                                sim::job_seed(config_.seed ^ 0xC5A5, index) %
                                kMissionFrames);
    const Cycle base = crash - crash % stride;
    {
      Tracer::Scope s(tracer_, SpanName::kRestore);
      sys.restore(checkpoints[static_cast<std::size_t>(base / stride)]);
    }
    for (Cycle f = base; f < crash; ++f) {
      Tracer::Scope s(tracer_, SpanName::kRunFrame);
      sys.run_frame();
    }
    {
      Tracer::Scope s(tracer_, SpanName::kRecover);
      victim.fail(crash);
    }
    {
      Tracer::Scope s(tracer_, SpanName::kCatchUp);
      (void)sys.ship_catch_up(avionics::kComputer1);
    }
    const support::CrashPoint& expected =
        report.points[static_cast<std::size_t>(crash - 1)];
    if (victim.poll_stable().fingerprint() != expected.recovered_fingerprint ||
        sys.ship_replica(avionics::kComputer1).store().fingerprint() !=
            expected.replica_fingerprint) {
      ++replay_mismatches_;
    }
  }

  /// The library's oracle path: the from-scratch sweep (checkpointing off)
  /// of each distinct mission, folded in block order.
  std::uint64_t oracle_digest() const {
    sim::BatchRunner runner(sim::BatchOptions{kOracleThreads, 0});
    std::vector<std::uint64_t> digests;
    for (const MissionDraw& draw : draws_) {
      support::CrashSweepOptions options = sweep_options(kMissionFrames);
      options.checkpointing = false;
      digests.push_back(
          support::run_crash_sweep(uav_factory(draw), options, runner)
              .digest());
    }
    std::uint64_t h = kFnvBasis;
    for (const std::size_t m : mission_of_block_) fnv_mix(h, digests[m]);
    return h;
  }

  const RunConfig& config_;
  Tracer& tracer_;
  std::size_t blocks_per_segment_ = 1;
  std::vector<MissionDraw> draws_;
  std::unique_ptr<sim::BatchRunner> runner_;
  std::vector<support::MissionFactory> factories_;
  LatencyHistogram frames_;
  std::vector<std::size_t> mission_of_block_;
  support::CrashSweepReport last_report_;
  std::uint64_t run_digest_ = kFnvBasis;
  std::uint64_t factory_calls_ = 0;
  std::uint64_t timed_factory_calls_ = 0;
  std::uint64_t failed_ops_ = 0;
  std::uint64_t replay_mismatches_ = 0;
  std::uint64_t simulated_frames_ = 0;
  std::uint64_t catchup_bytes_ = 0;
  std::uint64_t reseeds_ = 0;
  std::uint64_t lost_frames_max_ = 0;
  std::uint64_t journal_bytes_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t forced_syncs_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t ship_bytes_ = 0;
  std::uint64_t replay_frames_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_crash_sweep(const RunConfig& config,
                                           Tracer& tracer) {
  return std::make_unique<CrashSweep>(config, tracer);
}

}  // namespace perfbench
