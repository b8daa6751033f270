// Experiment E16 — the checkpointed crash-point sweep, measured.
//
// The from-scratch sweep replays the mission once per crash point: F crash
// points cost F·(F+1)/2 simulated frames. The checkpointed strategy runs
// one baseline pass that drops a deterministic core::SystemCheckpoint at
// the start of every interval of K points, then one mission per interval
// rolls forward from its checkpoint, one frame per point, refreshing the
// checkpoint in place before each verdict and restoring it after: 2F
// frames whatever K is. This experiment measures both against F:
//   1. Simulated frames and wall time, checkpointed vs from-scratch, with
//      the reduction ratio and measured speedup (acceptance: ≥5× fewer
//      simulated frames at F=256).
//   2. The stride table at fixed F: K no longer changes the frames
//      simulated, only the parallel grain — how many missions are built
//      and checkpoints taken, one each per interval.
//   3. A warm-start cell: the avionics mission shipping to its one-member
//      cohort at F = 512, with the cost per crash point, the frames
//      simulated, and the missions the sweep built (one per interval plus
//      the baseline).
//   4. The warm cost of each copy direction on that mission at frame 256:
//      refreshing one reused checkpoint in place (System::checkpoint_into)
//      and restoring it.
// The first two tables check the checkpointed report's digest against the
// from-scratch oracle where the oracle is run.
//
// Emit machine-readable numbers for the perf trajectory with:
//   bench_sweep --json BENCH_sweep.json
#include <chrono>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;
using storage::durable::SyncPolicy;

/// Chain-spec durable mission, the same workload bench_recovery sweeps.
support::MissionFactory sweep_factory(SyncPolicy policy) {
  return [policy] {
    auto spec = std::make_shared<core::ReconfigSpec>(
        support::make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
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

/// The section 7 avionics mission on durable storage (frames(4) group
/// commit, a snapshot every 16 epochs) shipping to its one-member cohort,
/// with the power factor cycling Full -> Reduced -> Minimal -> Full every
/// 45 frames of a `frames`-frame mission.
support::MissionFactory uav_ship_factory(Cycle frames) {
  return [frames] {
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
    options.durability.snapshot_every_epochs = 16;
    options.durability.sync = SyncPolicy::frames(4);
    auto system = std::make_unique<core::System>(bundle->spec, options);
    system->add_app(std::make_unique<avionics::AutopilotApp>(bundle->plant));
    system->add_app(std::make_unique<avionics::FcsApp>(bundle->plant));

    support::MissionProfile profile(options.frame_length);
    std::int64_t level = 0;
    for (Cycle f = 45; f < frames; f += 45) {
      level = (level + 1) % 3;
      profile.at(f, avionics::kPowerFactor, level);
    }
    system->set_fault_plan(profile.build());

    support::CrashMission mission;
    mission.keepalive = bundle;
    mission.system = std::move(system);
    return mission;
  };
}

double wall_ms(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

support::CrashSweepOptions sweep_options(Cycle frames, bool checkpointing,
                                         Cycle stride = 0) {
  support::CrashSweepOptions options;
  options.frames = frames;
  options.victim = support::synthetic_processor(0);
  options.checkpointing = checkpointing;
  options.checkpoint_stride = stride;
  return options;
}

void report_scaling() {
  const support::MissionFactory factory =
      sweep_factory(SyncPolicy::frames(4));
  std::cout << "\nCheckpointed vs from-scratch sweep (chain mission, "
               "frames(4) policy, stride auto-sized)\n";
  std::cout << std::left << std::setw(8) << "F" << std::setw(8) << "K"
            << std::setw(12) << "frames-ckpt" << std::setw(14)
            << "frames-scratch" << std::setw(8) << "ratio" << std::setw(12)
            << "ms-ckpt" << std::setw(12) << "ms-scratch" << std::setw(10)
            << "speedup" << "digest\n";
  for (const Cycle frames : {Cycle{32}, Cycle{64}, Cycle{128}, Cycle{256}}) {
    auto start = std::chrono::steady_clock::now();
    const support::CrashSweepReport ckpt =
        support::run_crash_sweep(factory, sweep_options(frames, true));
    const double ckpt_ms = wall_ms(start);

    start = std::chrono::steady_clock::now();
    const support::CrashSweepReport scratch =
        support::run_crash_sweep(factory, sweep_options(frames, false));
    const double scratch_ms = wall_ms(start);

    const double ratio = static_cast<double>(scratch.simulated_frames) /
                         static_cast<double>(ckpt.simulated_frames);
    const double speedup = scratch_ms / ckpt_ms;
    const bool digests_equal = ckpt.digest() == scratch.digest();
    std::cout << std::left << std::setw(8) << frames << std::setw(8)
              << ckpt.stride_used << std::setw(12) << ckpt.simulated_frames
              << std::setw(14) << scratch.simulated_frames << std::fixed
              << std::setprecision(1) << std::setw(8) << ratio
              << std::setw(12) << ckpt_ms << std::setw(12) << scratch_ms
              << std::setw(10) << speedup
              << (digests_equal ? "equal" : "MISMATCH") << "\n";
    const std::string f = std::to_string(frames);
    bench::trajectory().record("sweep/F" + f + "/frames_ratio", ratio, "x");
    bench::trajectory().record("sweep/F" + f + "/speedup", speedup, "x");
    bench::trajectory().record("sweep/F" + f + "/wall_checkpointed", ckpt_ms,
                               "ms");
    bench::trajectory().record("sweep/F" + f + "/wall_from_scratch",
                               scratch_ms, "ms");
    bench::trajectory().record("sweep/F" + f + "/digest_equal",
                               digests_equal ? 1.0 : 0.0, "bool");
  }
}

void report_stride_curve() {
  constexpr Cycle kFrames = 256;
  const support::MissionFactory factory =
      sweep_factory(SyncPolicy::frames(4));
  const std::uint64_t oracle_digest =
      support::run_crash_sweep(factory, sweep_options(kFrames, false))
          .digest();
  std::cout << "\nStride table (F = " << kFrames
            << "; K sets only the parallel grain; 0 = auto, a few intervals"
               " per worker)\n";
  std::cout << std::left << std::setw(10) << "stride" << std::setw(12)
            << "frames" << std::setw(8) << "ckpts" << std::setw(10)
            << "missions" << std::setw(10) << "ms" << "digest vs oracle\n";
  for (const Cycle stride :
       {Cycle{0}, Cycle{1}, Cycle{4}, Cycle{8}, Cycle{32}, Cycle{64},
        Cycle{256}}) {
    const auto start = std::chrono::steady_clock::now();
    const support::CrashSweepReport report = support::run_crash_sweep(
        factory, sweep_options(kFrames, true, stride));
    const double ms = wall_ms(start);
    const bool digests_equal = report.digest() == oracle_digest;
    std::cout << std::left << std::setw(10)
              << (stride == 0
                      ? "auto(" + std::to_string(report.stride_used) + ")"
                      : std::to_string(stride))
              << std::setw(12) << report.simulated_frames << std::setw(8)
              << report.checkpoints_taken << std::setw(10)
              << report.missions_built << std::fixed
              << std::setprecision(1) << std::setw(10) << ms
              << (digests_equal ? "equal" : "MISMATCH") << "\n";
    const std::string k =
        stride == 0 ? "auto" : std::to_string(stride);
    bench::trajectory().record("stride/" + k + "/simulated_frames",
                               static_cast<double>(report.simulated_frames),
                               "frames");
    bench::trajectory().record("stride/" + k + "/wall", ms, "ms");
  }
}

void report_warm_start_uav() {
  constexpr Cycle kFrames = 512;
  support::CrashSweepOptions options;
  options.frames = kFrames;
  options.victim = avionics::kComputer1;
  options.warm_start = true;
  const support::MissionFactory factory = uav_ship_factory(kFrames);
  (void)support::run_crash_sweep(factory, options);  // warm-up
  const auto start = std::chrono::steady_clock::now();
  const support::CrashSweepReport report =
      support::run_crash_sweep(factory, options);
  const double us_per_point =
      wall_ms(start) * 1e3 / static_cast<double>(kFrames);
  std::cout << "\nWarm-start avionics sweep (F = " << kFrames
            << ", one-member cohort, stride auto-sized)\n";
  std::cout << std::left << std::setw(8) << "K" << std::setw(10)
            << "missions" << std::setw(10) << "frames" << std::setw(12)
            << "us/point" << "verdict\n";
  std::cout << std::left << std::setw(8) << report.stride_used
            << std::setw(10) << report.missions_built << std::setw(10)
            << report.simulated_frames << std::fixed << std::setprecision(1)
            << std::setw(12) << us_per_point
            << (report.all_match() ? "all match" : "MISMATCH") << "\n";
  bench::trajectory().record("sweep/uav_ship_F512/us_per_point", us_per_point,
                             "us");
  bench::trajectory().record("sweep/uav_ship_F512/missions_built",
                             static_cast<double>(report.missions_built),
                             "missions");
  bench::trajectory().record("sweep/uav_ship_F512/simulated_frames",
                             static_cast<double>(report.simulated_frames),
                             "frames");
}

/// Warm cost of each copy direction on the warm-start cell's mission at
/// frame 256 (a mid-mission trace and journal): refreshing one reused
/// checkpoint in place, then restoring it, each averaged over kReps calls
/// after one warm-up call.
void report_checkpoint_costs() {
  constexpr Cycle kFrames = 512;
  constexpr Cycle kAt = 256;
  constexpr int kReps = 2000;
  const support::CrashMission mission = uav_ship_factory(kFrames)();
  core::System& system = *mission.system;
  system.run(kAt);
  core::SystemCheckpoint image = system.checkpoint();
  system.checkpoint_into(image);
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) system.checkpoint_into(image);
  const double into_us = wall_ms(start) * 1e3 / kReps;
  system.restore(image);
  start = std::chrono::steady_clock::now();
  for (int i = 0; i < kReps; ++i) system.restore(image);
  const double restore_us = wall_ms(start) * 1e3 / kReps;
  const bool exact = system.digest() == image.digest();
  std::cout << "\nWarm copy costs (same mission at frame " << kAt << ")\n";
  std::cout << std::left << std::setw(20) << "checkpoint_into us"
            << std::setw(14) << "restore us" << "digest\n";
  std::cout << std::left << std::fixed << std::setprecision(2)
            << std::setw(20) << into_us << std::setw(14) << restore_us
            << (exact ? "equal" : "MISMATCH") << "\n";
  bench::trajectory().record("sweep/uav_ship_F512/checkpoint_into_us",
                             into_us, "us");
  bench::trajectory().record("sweep/uav_ship_F512/restore_us", restore_us,
                             "us");
}

void report() {
  bench::banner("E16: checkpointed crash-point sweep",
                "the O(F²) → O(F) sweep reduction");
  report_scaling();
  report_stride_curve();
  report_warm_start_uav();
  report_checkpoint_costs();
  std::cout << "\n";
}

// --- google-benchmark timings ---

void BM_SweepCheckpointed(benchmark::State& state) {
  const support::MissionFactory factory =
      sweep_factory(SyncPolicy::frames(4));
  const support::CrashSweepOptions options =
      sweep_options(static_cast<Cycle>(state.range(0)), true);
  for (auto _ : state) {
    const support::CrashSweepReport report =
        support::run_crash_sweep(factory, options);
    benchmark::DoNotOptimize(report.mismatches);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepCheckpointed)->ArgName("frames")->Arg(64)->Arg(256);

void BM_SweepFromScratch(benchmark::State& state) {
  const support::MissionFactory factory =
      sweep_factory(SyncPolicy::frames(4));
  const support::CrashSweepOptions options =
      sweep_options(static_cast<Cycle>(state.range(0)), false);
  for (auto _ : state) {
    const support::CrashSweepReport report =
        support::run_crash_sweep(factory, options);
    benchmark::DoNotOptimize(report.mismatches);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SweepFromScratch)->ArgName("frames")->Arg(64);

}  // namespace

ARFS_BENCH_MAIN(report)
