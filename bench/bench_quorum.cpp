// Experiment E18 — quorum-replicated journal shipping, measured.
//
// A QuorumGroup fans one source's synced WAL out to N shipped replicas and
// commits at the majority-acknowledged epoch; relocations warm-start from
// the elected leader and survive any minority of member fail-stops. This
// experiment quantifies what the cohort costs and what it buys:
//   1. Availability vs N: the leader-kill crash sweep (the elected leader
//      fail-stops at every crash point, twice at N = 5) — the fraction of
//      crash frames at which a live majority still acknowledged exactly the
//      epoch the warm start served — against the shipping bytes the fan-out
//      costs (acceptance: availability 1.0 at every N, bytes ≈ N × single).
//   2. Majority-ack latency vs cohort size: p50/p95/p99/max commit lag
//      behind the source's durable epoch over a mission, per sync policy
//      (N = 1 is the warm standby).
//
// Emit machine-readable numbers for the perf trajectory with:
//   bench_quorum --json BENCH_quorum.json
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "arfs/core/system.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;
using storage::durable::SyncPolicy;

Cycle env_frames(const char* name, Cycle fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const auto parsed = std::strtoull(value, nullptr, 10);
  return parsed > 0 ? static_cast<Cycle>(parsed) : fallback;
}

double wall_ms(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Chain-spec durable mission with an N-member cohort per processor
/// (N = 1 is the warm standby).
support::MissionFactory quorum_factory(SyncPolicy policy,
                                       std::uint32_t replicas,
                                       std::uint32_t slot_bytes = 4096) {
  return [policy, replicas, slot_bytes] {
    auto spec = std::make_shared<core::ReconfigSpec>(
        support::make_chain_spec({}));
    core::SystemOptions options;
    options.durable_storage = true;
    options.journal_shipping = true;
    options.quorum_replicas = replicas;
    options.ship_slot_bytes = slot_bytes;
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

/// Availability under the leader-kill adversary, and the bytes the fan-out
/// costs, for N ∈ {1, 3, 5}. Every sweep runs warm_start with kills = the
/// largest minority, so the commit rule is checked at every crash frame.
bool report_availability() {
  const Cycle frames = env_frames("ARFS_QUORUM_FRAMES", 96);
  const SyncPolicy policy = SyncPolicy::frames(4);
  std::cout << "\nLeader-kill sweep availability and fan-out cost vs N\n"
            << "(chain mission, frames(4) policy, " << frames
            << " crash points, leader killed at every one)\n";
  std::cout << std::left << std::setw(5) << "N" << std::setw(7) << "kills"
            << std::setw(14) << "availability" << std::setw(10) << "reseeds"
            << std::setw(16) << "bytes-shipped" << std::setw(14)
            << "max-catchup" << std::setw(10) << "ms" << "\n";

  bool all_ok = true;
  double single_bytes = 0;
  for (const std::uint32_t n : {1u, 3u, 5u}) {
    const std::uint32_t kills = (n - 1) / 2;
    support::CrashSweepOptions options;
    options.frames = frames;
    options.victim = support::synthetic_processor(0);
    options.warm_start = true;
    options.quorum_kills = kills;

    // The fan-out cost, measured on an undisturbed mission of equal length.
    support::CrashMission mission = quorum_factory(policy, n)();
    mission.system->run(frames);
    const double bytes =
        static_cast<double>(mission.system->stats().ship_bytes_total);
    if (n == 1) single_bytes = bytes;

    const auto start = std::chrono::steady_clock::now();
    const support::CrashSweepReport report =
        support::run_crash_sweep(quorum_factory(policy, n), options);
    const double ms = wall_ms(start);

    const double availability =
        static_cast<double>(report.points.size() - report.replica_mismatches) /
        static_cast<double>(report.points.size());
    all_ok = all_ok && report.all_match();
    std::cout << std::left << std::setw(5) << n << std::setw(7) << kills
              << std::fixed << std::setprecision(3) << std::setw(14)
              << availability << std::setw(10) << report.replica_reseeds
              << std::setprecision(0) << std::setw(16) << bytes
              << std::setw(14) << report.max_replica_catchup_bytes
              << std::setprecision(1) << std::setw(10) << ms << "\n";

    const std::string key = "quorum/N" + std::to_string(n);
    bench::trajectory().record(key + "/availability", availability, "frac");
    bench::trajectory().record(key + "/bytes_shipped", bytes, "bytes");
    bench::trajectory().record(key + "/bytes_vs_single",
                               single_bytes > 0 ? bytes / single_bytes : 0,
                               "x");
    bench::trajectory().record(key + "/sweep_wall", ms, "ms");
  }
  std::cout << "commit rule held at every crash point: "
            << (all_ok ? "yes" : "NO") << "\n";
  return all_ok;
}

/// Commit-boundary lag behind the source's durable epoch, frame by frame:
/// the cohort's majority-acked commit id at N = 1 (the warm standby, whose
/// commit id is its lone replica's cursor), 3 and 5.
void report_latency() {
  const Cycle frames = env_frames("ARFS_QUORUM_MISSION", 128);
  const ProcessorId victim = support::synthetic_processor(0);
  // Starve the TDMA ship slots (16 bytes/frame vs the 4 KiB default) so the
  // replicas run behind and the commit boundary's tracking is visible.
  const std::uint32_t slot_bytes = 16;
  std::cout << "\nMajority-ack lag behind the durable epoch (p50/p95/p99/max "
            << "over " << frames << " frames, " << slot_bytes
            << "-byte ship slots)\n";
  std::cout << std::left << std::setw(18) << "policy" << std::setw(16)
            << "cohort N=1" << std::setw(16) << "cohort N=3"
            << std::setw(16) << "cohort N=5" << "\n";

  const std::pair<std::string, SyncPolicy> policies[] = {
      {"every-commit", SyncPolicy::every_commit()},
      {"frames(4)", SyncPolicy::frames(4)},
      {"hybrid(4096,8)", SyncPolicy::hybrid(4096, 8)},
  };
  for (const auto& [name, policy] : policies) {
    std::cout << std::left << std::setw(18) << name;
    for (const std::uint32_t n : {1u, 3u, 5u}) {
      support::CrashMission mission = quorum_factory(policy, n, slot_bytes)();
      core::System& system = *mission.system;
      bench::Log2Histogram lag_hist;
      for (Cycle f = 0; f < frames; ++f) {
        system.run(1);
        const auto* engine =
            system.processors().processor(victim).durability();
        const std::uint64_t durable = engine->stats().last_durable_epoch;
        const std::uint64_t acked = system.quorum_group(victim).commit_id();
        lag_hist.record(durable > acked ? durable - acked : 0);
      }
      std::ostringstream cell;
      cell << lag_hist.p50() << "/" << lag_hist.p95() << "/"
           << lag_hist.p99() << "/" << lag_hist.max();
      std::cout << std::setw(16) << cell.str();
      const std::string key = "lag/" + name + "/N" + std::to_string(n);
      bench::trajectory().record(key + "/p50",
                                 static_cast<double>(lag_hist.p50()),
                                 "epochs");
      bench::trajectory().record(key + "/p95",
                                 static_cast<double>(lag_hist.p95()),
                                 "epochs");
      bench::trajectory().record(key + "/p99",
                                 static_cast<double>(lag_hist.p99()),
                                 "epochs");
      bench::trajectory().record(key + "/max",
                                 static_cast<double>(lag_hist.max()),
                                 "epochs");
    }
    std::cout << "\n";
  }
  std::cout << "(p50/p95/p99/max epochs. Each member rides its own TDMA\n"
            << " slot, so the majority ack adds no commit lag over the\n"
            << " one-member standby — the cohort's cost is purely the N-fold\n"
            << " shipping bandwidth above.)\n";
}

void report() {
  bench::banner("E18: quorum-replicated journal shipping",
                "majority-ack durability over elected shipper cohorts");
  report_availability();
  report_latency();
  std::cout << "\n";
}

// --- google-benchmark timings ---

void BM_QuorumLeaderKillSweep(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  support::CrashSweepOptions options;
  options.frames = 32;
  options.victim = support::synthetic_processor(0);
  options.warm_start = true;
  options.quorum_kills = (n - 1) / 2;
  const support::MissionFactory factory =
      quorum_factory(SyncPolicy::frames(4), n);
  for (auto _ : state) {
    const support::CrashSweepReport report =
        support::run_crash_sweep(factory, options);
    benchmark::DoNotOptimize(report.replica_mismatches);
  }
  state.SetItemsProcessed(state.iterations() * options.frames);
}
BENCHMARK(BM_QuorumLeaderKillSweep)->ArgName("N")->Arg(1)->Arg(3)->Arg(5);

}  // namespace

ARFS_BENCH_MAIN(report)
