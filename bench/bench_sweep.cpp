// Experiment E16 — the checkpointed crash-point sweep, measured.
//
// The from-scratch sweep replays the mission once per crash point: F crash
// points cost F·(F+1)/2 simulated frames. The rolling strategy splits the
// points into one interval per runner thread; one mission rolls forward
// through each, one frame per point, and every point is judged on a spare
// copy of the victim refreshed in place (support::JudgeBench), so the
// mission is never crashed and never restored per point. A serial baseline
// pass runs the mission up to the last interval's start: F frames plus the
// baseline's, exactly F at one thread. This experiment measures:
//   1. Simulated frames and wall time, rolling vs from-scratch, with the
//      reduction ratio and measured speedup (acceptance: ≥5× fewer
//      simulated frames at F=256).
//   2. The cost of a crash point against mission length: the avionics
//      mission shipping to its one-member cohort (a snapshot every 16
//      epochs), µs per point at F = 512, 2,048 and 8,192 on 1, 2 and 4
//      runner threads, the best of three reps of at least 50 ms of
//      back-to-back sweeps, taken in rounds over every cell. A point's
//      cost should not grow with F.
//   3. Where one point's time goes, at one thread on the F = 512 cell's
//      mission: the mission's frame, the JudgeBench refresh from the live
//      victim and cohort, and the verdict on the bench (judge_crash_point),
//      each timed apart through the public API.
//   4. The warm cost of each System copy direction on that mission at
//      frame 256: refreshing one reused checkpoint in place
//      (System::checkpoint_into) and restoring it — what an explorer that
//      branches the whole system pays.
// The first table checks the rolling report's digest against the
// from-scratch oracle, the second the digest across thread counts.
//
// Emit machine-readable numbers for the perf trajectory with:
//   bench_sweep --json BENCH_sweep.json
#include <chrono>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/quorum.hpp"
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

support::CrashSweepOptions sweep_options(Cycle frames, bool checkpointing) {
  support::CrashSweepOptions options;
  options.frames = frames;
  options.victim = support::synthetic_processor(0);
  options.checkpointing = checkpointing;
  return options;
}

void report_scaling() {
  const support::MissionFactory factory =
      sweep_factory(SyncPolicy::frames(4));
  std::cout << "\nRolling vs from-scratch sweep (chain mission, "
               "frames(4) policy)\n";
  std::cout << std::left << std::setw(8) << "F" << std::setw(12)
            << "frames-roll" << std::setw(16) << "frames-scratch"
            << std::setw(8) << "ratio" << std::setw(12)
            << "ms-roll" << std::setw(12) << "ms-scratch" << std::setw(10)
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
    std::cout << std::left << std::setw(8) << frames << std::setw(12)
              << ckpt.simulated_frames << std::setw(16)
              << scratch.simulated_frames << std::fixed
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

/// Wall time one timing rep covers at least: a short sweep is repeated
/// until it does, so fixed per-sweep costs weigh on F = 512 no more than
/// on F = 8,192.
constexpr double kMinRepMs = 50.0;

/// One timing rep of the warm-start avionics sweep: µs per crash point,
/// the mean over as many back-to-back sweeps as fill kMinRepMs. `digest`
/// receives the report digest; `ok` is cleared by any mismatched point.
double rep_us_per_point(const support::MissionFactory& factory,
                        const support::CrashSweepOptions& options,
                        sim::BatchRunner& runner, std::uint64_t& digest,
                        bool& ok) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t points = 0;
  do {
    const support::CrashSweepReport report =
        support::run_crash_sweep(factory, options, runner);
    points += report.points.size();
    digest = report.digest();
    ok = ok && report.all_match();
  } while (wall_ms(start) < kMinRepMs);
  return wall_ms(start) * 1e3 / static_cast<double>(points);
}

/// The cost of a crash point against mission length and runner threads:
/// the best of three reps per cell. The reps run in rounds over every
/// cell, so a slow spell of the shared host lands on all cells alike
/// instead of on whichever one it overlaps.
void report_point_cost() {
  constexpr Cycle kFrames[] = {512, 2048, 8192};
  constexpr std::size_t kThreads[] = {1, 2, 4};
  constexpr int kRounds = 3;
  double best[3][3] = {};
  std::uint64_t digests[3][3] = {};
  bool ok = true;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t f = 0; f < 3; ++f) {
      support::CrashSweepOptions options;
      options.frames = kFrames[f];
      options.victim = avionics::kComputer1;
      options.warm_start = true;
      const support::MissionFactory factory = uav_ship_factory(kFrames[f]);
      for (std::size_t t = 0; t < 3; ++t) {
        sim::BatchRunner runner(sim::BatchOptions{kThreads[t], 0});
        const double us =
            rep_us_per_point(factory, options, runner, digests[f][t], ok);
        if (round == 0 || us < best[f][t]) best[f][t] = us;
      }
    }
  }
  std::cout << "\nWarm-start avionics sweep, us per crash point (one-member "
               "cohort, a snapshot every 16 epochs; best of "
            << kRounds << " reps of at least " << kMinRepMs << " ms)\n";
  std::cout << std::left << std::setw(8) << "F" << std::setw(12)
            << "1 thread" << std::setw(12) << "2 threads" << std::setw(12)
            << "4 threads" << "verdict\n";
  for (std::size_t f = 0; f < 3; ++f) {
    const std::string key = "sweep/uav_ship_F" + std::to_string(kFrames[f]) +
                            "/us_per_point";
    std::cout << std::left << std::setw(8) << kFrames[f] << std::fixed
              << std::setprecision(2);
    bool digests_equal = true;
    for (std::size_t t = 0; t < 3; ++t) {
      digests_equal = digests_equal && digests[f][t] == digests[f][0];
      std::cout << std::setw(12) << best[f][t];
      bench::trajectory().record(
          t == 0 ? key : key + "_" + std::to_string(kThreads[t]) + "t",
          best[f][t], "us");
    }
    std::cout << (!ok             ? "MISMATCH"
                  : digests_equal ? "all match, digest equal"
                                  : "DIGEST DIFFERS")
              << "\n";
  }
}

/// One crash point's three steps, timed apart at one thread on the
/// warm-start F = 512 cell's mission, as the rolling sweep takes them: the
/// mission's frame (with the victim's fingerprint the sweep records), the
/// bench refresh and the verdict on the bench. Each step's mean µs over
/// the mission's points, the best of kPasses fresh missions (the first
/// points of a pass grow the bench's buffers). Four clock reads per point
/// are included, about 0.1 µs in all.
void report_point_split() {
  constexpr Cycle kFrames = 512;
  constexpr int kPasses = 5;
  using Clock = std::chrono::steady_clock;
  double best[3] = {};
  bool ok = true;
  for (int pass = 0; pass < kPasses; ++pass) {
    const support::CrashMission mission = uav_ship_factory(kFrames)();
    core::System& system = *mission.system;
    failstop::Processor& victim =
        system.processors().processor(avionics::kComputer1);
    storage::durable::quorum::QuorumGroup& cohort =
        system.quorum_group(avionics::kComputer1);
    support::JudgeBench bench(victim, &cohort);
    support::CrashSweepOptions options;
    options.victim = avionics::kComputer1;
    options.warm_start = true;
    std::vector<std::uint64_t> fingerprints{
        victim.poll_stable().fingerprint()};
    fingerprints.reserve(static_cast<std::size_t>(kFrames) + 1);
    Clock::duration spent[3] = {};
    for (Cycle f = 1; f <= kFrames; ++f) {
      const Clock::time_point t0 = Clock::now();
      system.run(1);
      fingerprints.push_back(victim.poll_stable().fingerprint());
      const Clock::time_point t1 = Clock::now();
      bench.refresh(victim, &cohort);
      const Clock::time_point t2 = Clock::now();
      const support::CrashPoint point = support::judge_crash_point(
          bench.victim(), bench.cohort(), options, f, fingerprints);
      const Clock::time_point t3 = Clock::now();
      ok = ok && point.match && point.replica_match;
      spent[0] += t1 - t0;
      spent[1] += t2 - t1;
      spent[2] += t3 - t2;
    }
    for (int step = 0; step < 3; ++step) {
      const double us =
          std::chrono::duration<double, std::micro>(spent[step]).count() /
          static_cast<double>(kFrames);
      if (pass == 0 || us < best[step]) best[step] = us;
    }
  }
  std::cout << "\nOne crash point, step by step (1 thread, F = " << kFrames
            << ", best of " << kPasses << " fresh missions)\n";
  std::cout << std::left << std::setw(12) << "frame us" << std::setw(14)
            << "refresh us" << std::setw(12) << "judge us" << "verdict\n";
  std::cout << std::left << std::fixed << std::setprecision(2)
            << std::setw(12) << best[0] << std::setw(14) << best[1]
            << std::setw(12) << best[2] << (ok ? "all match" : "MISMATCH")
            << "\n";
  const char* const names[] = {"frame_us", "refresh_us", "judge_us"};
  for (int step = 0; step < 3; ++step) {
    bench::trajectory().record(
        std::string("sweep/uav_ship_F512/") + names[step], best[step], "us");
  }
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
  report_point_cost();
  report_point_split();
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
