// Experiments E13 + E14 + E15 + E20 — durable stable storage, measured.
//
// E13 (the §5.1 stable-storage construction):
//   1. What does the write-ahead journal cost per commit?
//   2. How does crash-recovery replay latency grow with journal length?
//   3. How much of that latency do periodic snapshots buy back?
//
// E14 (fast durable commits):
//   4. The sync-policy frontier: commit throughput vs durability lag for
//      every-commit, bytes-watermark, frames-watermark, and hybrid group
//      commit, on the simulated device and on a real file (fsync bound).
//   5. The crash-point sweep as a workload: wall time to fail-stop a
//      durable mission at every frame in parallel and verify recovery.
//
// E15 (replicated journal shipping):
//   6. Relocation cost, warm vs cold: journal tail bytes a continuously
//      shipped one-member cohort (the warm standby) still needs at a
//      relocation point, against the encoded full-state copy the
//      peer-reader path would put on the bus — across state sizes and sync
//      policies.
//   7. The avionics mission end to end: every region relocation of the UAV
//      power-degradation mission served warm, with the bytes a full copy
//      would have cost and the mission wall time both ways.
//
// E20 (adaptive watermarks):
//   8. Adaptive vs static watermarks: the online-tuned controller against
//      every static bytes watermark {1K..256K} and every-commit, at every
//      state size (the acceptance bar: adaptive within 10% of the best
//      static, strictly above every-commit).
//
// Emit machine-readable numbers for the perf trajectory with:
//   bench_recovery --json BENCH_recovery.json
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/storage/durable/backend.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/quorum.hpp"
#include "arfs/storage/durable/shipping.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;
using storage::StableStorage;
using storage::durable::DurabilityEngine;
using storage::durable::DurableOptions;
using storage::durable::make_memory_engine;
using storage::durable::RecoveryReport;
using storage::durable::SyncPolicy;

/// The policy frontier every E14 table walks.
const std::vector<std::pair<std::string, SyncPolicy>>& policies() {
  static const std::vector<std::pair<std::string, SyncPolicy>> kPolicies = {
      {"every-commit", SyncPolicy::every_commit()},
      {"frames(32)", SyncPolicy::frames(32)},
      {"bytes(64K)", SyncPolicy::bytes(64 * 1024)},
      {"hybrid", SyncPolicy::hybrid(64 * 1024, 32)},
  };
  return kPolicies;
}

SyncPolicy policy_by_index(std::int64_t index) {
  return policies()[static_cast<std::size_t>(index)].second;
}

/// Appends `commits` frames of `keys_per_commit` writes through the
/// write-ahead protocol.
void run_commits(DurabilityEngine& engine, StableStorage& store,
                 std::size_t commits, std::size_t keys_per_commit) {
  for (std::size_t c = 0; c < commits; ++c) {
    for (std::size_t k = 0; k < keys_per_commit; ++k) {
      store.write("key" + std::to_string(k), static_cast<std::int64_t>(c));
    }
    engine.record_commit(store, c);
    store.commit(c);
    engine.after_commit(store);
  }
}

double wall_ms(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void report_append_throughput() {
  constexpr std::size_t kCommits = 50'000;
  std::cout << "\nJournal append throughput (" << kCommits
            << " commits, in-memory device)\n";
  std::cout << std::left << std::setw(10) << "keys" << std::setw(14)
            << "policy" << std::setw(12) << "ms" << std::setw(14)
            << "commits/s" << "MB appended\n";
  for (const std::size_t keys : {1, 4, 16}) {
    for (const auto& [name, policy] : policies()) {
      DurableOptions options;
      options.sync = policy;
      auto engine = make_memory_engine(options);
      StableStorage store;
      const auto start = std::chrono::steady_clock::now();
      run_commits(*engine, store, kCommits, keys);
      (void)engine->sync_now();  // settle the tail: honest totals
      const double ms = wall_ms(start);
      std::cout << std::left << std::setw(10) << keys << std::setw(14)
                << name << std::setw(12) << std::fixed << std::setprecision(1)
                << ms << std::setw(14)
                << static_cast<std::uint64_t>(kCommits / (ms / 1000.0))
                << std::setprecision(2)
                << engine->stats().bytes_appended / (1024.0 * 1024.0) << "\n";
      bench::trajectory().record(
          "append/" + std::to_string(keys) + "keys/" + name,
          kCommits / (ms / 1000.0), "commits/s");
    }
  }
}

/// One frontier row: run `commits` through `engine`, return commits/s.
template <typename MakeEngine>
void frontier_table(const std::string& device, std::size_t commits,
                    const MakeEngine& make_engine) {
  std::cout << "\nSync-policy frontier (" << device << ", " << commits
            << " commits, 4 keys per commit)\n";
  std::cout << std::left << std::setw(14) << "policy" << std::setw(12)
            << "commits/s" << std::setw(8) << "syncs" << std::setw(14)
            << "max-lag-frm" << std::setw(14) << "max-lag-KB"
            << "speedup\n";
  double baseline = 0.0;
  for (const auto& [name, policy] : policies()) {
    std::unique_ptr<DurabilityEngine> engine = make_engine(policy);
    StableStorage store;
    const auto start = std::chrono::steady_clock::now();
    run_commits(*engine, store, commits, 4);
    (void)engine->sync_now();
    const double ms = wall_ms(start);
    const double rate = commits / (ms / 1000.0);
    if (baseline == 0.0) baseline = rate;
    bench::trajectory().record("frontier/" + device + "/" + name, rate,
                               "commits/s");
    std::cout << std::left << std::setw(14) << name << std::setw(12)
              << static_cast<std::uint64_t>(rate) << std::setw(8)
              << engine->stats().syncs << std::setw(14)
              << engine->stats().max_lag_frames << std::setw(14)
              << std::fixed << std::setprecision(1)
              << engine->stats().max_lag_bytes / 1024.0 << std::setprecision(2)
              << rate / baseline << "x\n";
  }
}

void report_policy_frontier() {
  frontier_table("in-memory device", 50'000, [](SyncPolicy policy) {
    DurableOptions options;
    options.sync = policy;
    return make_memory_engine(options);
  });
  const std::string path = "bench_recovery.frontier.tmp.wal";
  frontier_table("file device, fsync bound", 2'000,
                 [&path](SyncPolicy policy) {
                   auto file =
                       std::make_unique<storage::durable::FileBackend>(path);
                   file->truncate(0);
                   DurableOptions options;
                   options.sync = policy;
                   return std::make_unique<DurabilityEngine>(
                       std::move(file),
                       std::make_unique<storage::durable::MemoryBackend>(),
                       options);
                 });
  std::remove(path.c_str());
}

void report_recovery_latency() {
  std::cout << "\nRecovery-replay latency vs journal length "
               "(4 keys per commit)\n";
  std::cout << std::left << std::setw(12) << "records" << std::setw(12)
            << "ms" << "records/s\n";
  for (const std::size_t records : {1'000, 10'000, 100'000}) {
    auto engine = make_memory_engine();
    StableStorage store;
    run_commits(*engine, store, records, 4);
    engine->crash();
    const auto start = std::chrono::steady_clock::now();
    StableStorage recovered;
    const RecoveryReport report = engine->recover_into(recovered);
    const double ms = wall_ms(start);
    std::cout << std::left << std::setw(12) << report.records_applied
              << std::setw(12) << std::fixed << std::setprecision(2) << ms
              << static_cast<std::uint64_t>(records / (ms / 1000.0)) << "\n";
    bench::trajectory().record(
        "recovery_replay/" + std::to_string(records) + "records", ms, "ms");
  }
}

void report_snapshot_effect() {
  constexpr std::size_t kCommits = 100'000;
  std::cout << "\nSnapshot effect on recovery (" << kCommits
            << " commits, 4 keys per commit)\n";
  std::cout << std::left << std::setw(16) << "interval" << std::setw(12)
            << "ms" << std::setw(12) << "replayed" << "from snapshot\n";
  for (const std::uint64_t interval : {std::uint64_t{0}, std::uint64_t{4096},
                                       std::uint64_t{512}}) {
    DurableOptions options;
    options.snapshot_every_epochs = interval;
    auto engine = make_memory_engine(options);
    StableStorage store;
    run_commits(*engine, store, kCommits, 4);
    engine->crash();
    const auto start = std::chrono::steady_clock::now();
    StableStorage recovered;
    const RecoveryReport report = engine->recover_into(recovered);
    const double ms = wall_ms(start);
    std::cout << std::left << std::setw(16)
              << (interval == 0 ? std::string{"none"}
                                : std::to_string(interval))
              << std::setw(12) << std::fixed << std::setprecision(2) << ms
              << std::setw(12) << report.records_applied
              << (report.used_snapshot ? "yes" : "no") << "\n";
    bench::trajectory().record(
        "snapshot_recovery/" + (interval == 0 ? std::string{"none"}
                                              : std::to_string(interval)),
        ms, "ms");
  }
}

/// Chain-spec durable mission for the crash-sweep workload.
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

void report_crash_sweep() {
  constexpr Cycle kFrames = 24;
  std::cout << "\nCrash-point sweep (chain mission, " << kFrames
            << " crash points, all frames verified)\n";
  std::cout << std::left << std::setw(14) << "policy" << std::setw(10)
            << "ms" << std::setw(12) << "mismatches" << "max lost frames\n";
  for (const auto& [name, policy] : policies()) {
    support::CrashSweepOptions options;
    options.frames = kFrames;
    options.victim = support::synthetic_processor(0);
    const auto start = std::chrono::steady_clock::now();
    const support::CrashSweepReport report =
        support::run_crash_sweep(sweep_factory(policy), options);
    const double ms = wall_ms(start);
    std::cout << std::left << std::setw(14) << name << std::setw(10)
              << std::fixed << std::setprecision(1) << ms << std::setw(12)
              << report.mismatches << report.max_lost_frames << "\n";
    bench::trajectory().record("crash_sweep/" + name, ms, "ms");
  }
}

// --- E15: replicated journal shipping ---

void report_ship_vs_full_copy() {
  // A one-member replica cohort (the warm standby) is fed one quorum slot
  // per commit (4 KB budget, the System default); at the relocation point
  // the source syncs its boundary and the member catches up. "warm" is what
  // that catch-up still moved; "full" is what polling the whole encoded
  // state — the only alternative — would have moved.
  // The workload shape that matters: a state much larger than any one
  // frame's delta (4 keys of a rotating working set change per commit).
  // Relocating such a region cold moves the whole state; warm moves only
  // the journal tail accumulated since the standby's last slot.
  constexpr std::size_t kCommits = 2'000;
  constexpr std::size_t kKeysPerCommit = 4;
  std::cout << "\nWarm-start relocation bytes vs full-state copy ("
            << kCommits << " commits, " << kKeysPerCommit
            << " of N keys touched per commit, snapshots every 256)\n";
  std::cout << std::left << std::setw(8) << "keys" << std::setw(14)
            << "policy" << std::setw(12) << "full-KB" << std::setw(12)
            << "warm-KB" << std::setw(10) << "avoided" << "rebases\n";
  for (const std::size_t keys : {256, 1024, 4096}) {
    for (const auto& [name, policy] : policies()) {
      DurableOptions options;
      options.snapshot_every_epochs = 256;
      options.sync = policy;
      auto engine = make_memory_engine(options);
      StableStorage store;
      storage::durable::quorum::QuorumGroup standby(
          *engine, storage::durable::quorum::QuorumOptions{.replicas = 1});
      for (std::size_t c = 0; c < kCommits; ++c) {
        // Commit 0 populates the whole state; later commits touch a small
        // rotating window.
        const std::size_t touched = c == 0 ? keys : kKeysPerCommit;
        for (std::size_t k = 0; k < touched; ++k) {
          const std::size_t key =
              c == 0 ? k : (c * kKeysPerCommit + k) % keys;
          store.write("key" + std::to_string(key),
                      static_cast<std::int64_t>(c));
        }
        engine->record_commit(store, c);
        store.commit(c);
        engine->after_commit(store);
        (void)standby.pump_member(0, 4096);
      }
      (void)engine->sync_now();  // the relocation's halt-boundary flush
      const std::size_t warm = standby.catch_up_member(0);
      const std::uint64_t full =
          storage::durable::encoded_state_bytes(store);
      std::cout << std::left << std::setw(8) << keys << std::setw(14) << name
                << std::setw(12) << std::fixed << std::setprecision(1)
                << full / 1024.0 << std::setw(12) << warm / 1024.0
                << std::setw(10) << std::setprecision(1)
                << 100.0 * (1.0 - static_cast<double>(warm) /
                                      static_cast<double>(full))
                << standby.stats().rebases << "\n";
      bench::trajectory().record(
          "ship_avoided/" + std::to_string(keys) + "keys/" + name,
          100.0 * (1.0 - static_cast<double>(warm) /
                             static_cast<double>(full)),
          "percent");
    }
  }
}

/// One UAV power-degradation mission (the E6 scenario) with durable
/// storage; `shipping` turns the one-member replica cohorts on.
std::unique_ptr<core::System> make_uav_mission(
    const std::shared_ptr<core::ReconfigSpec>& spec,
    avionics::UavPlant& plant, bool shipping) {
  core::SystemOptions options;
  options.frame_length = 20'000;
  options.durable_storage = true;
  options.journal_shipping = shipping;
  options.durability.snapshot_every_epochs = 16;
  auto system = std::make_unique<core::System>(*spec, options);
  system->add_app(std::make_unique<avionics::AutopilotApp>(plant));
  system->add_app(std::make_unique<avionics::FcsApp>(plant));
  support::MissionProfile mission(options.frame_length);
  mission.at(10, avionics::kPowerFactor, 1)
      .at(25, avionics::kPowerFactor, 2)
      .at(40, avionics::kPowerFactor, 0);
  system->set_fault_plan(mission.build());
  return system;
}

void report_warm_relocation_mission() {
  constexpr Cycle kFrames = 60;
  std::cout << "\nAvionics mission relocations, warm vs full copy ("
            << kFrames << " frames, three reconfigurations)\n";
  std::cout << std::left << std::setw(12) << "mode" << std::setw(10)
            << "ms" << std::setw(8) << "relocs" << std::setw(8) << "warm"
            << std::setw(12) << "moved-KB" << "note\n";

  avionics::UavSpecOptions spec_options;
  spec_options.dwell_frames = 10;
  for (const bool shipping : {false, true}) {
    auto spec = std::make_shared<core::ReconfigSpec>(
        avionics::make_uav_spec(spec_options));
    avionics::UavPlant plant(42);
    auto system = make_uav_mission(spec, plant, shipping);
    const auto start = std::chrono::steady_clock::now();
    system->run(kFrames);
    const double ms = wall_ms(start);
    const core::SystemStats& stats = system->stats();
    // Without shipping every relocation moves the full encoded region; with
    // it the bus carries only the un-shipped journal tail.
    const double moved_kb = shipping
                                ? stats.relocation_catchup_bytes / 1024.0
                                : stats.full_copy_bytes / 1024.0;
    std::cout << std::left << std::setw(12)
              << (shipping ? "warm-ship" : "full-copy") << std::setw(10)
              << std::fixed << std::setprecision(1) << ms << std::setw(8)
              << stats.region_relocations << std::setw(8)
              << stats.warm_relocations << std::setw(12) << std::setprecision(2)
              << moved_kb;
    const std::string mode = shipping ? "warm-ship" : "full-copy";
    bench::trajectory().record("mission_relocation/" + mode + "/wall", ms,
                               "ms");
    bench::trajectory().record("mission_relocation/" + mode + "/moved",
                               moved_kb, "KB");
    if (shipping) {
      std::cout << "tail only; full copy would have moved "
                << std::setprecision(2)
                << stats.full_copy_bytes_avoided / 1024.0 << " KB ("
                << stats.ship_bytes_total / 1024.0 << " KB shipped total)";
    } else {
      std::cout << "relocations move the full encoded region";
    }
    std::cout << "\n";
  }
}

// --- E20: adaptive watermarks ---

/// A journal device whose sync() pays a fixed deterministic CPU cost before
/// the transfer — the latency term (fsync, controller round trip) that
/// group commit exists to amortize. On the pure in-memory device sync is
/// nearly free and every policy times the same; this wrapper makes the
/// watermark curve measure what the policy actually controls.
class CostlySyncBackend final : public storage::durable::JournalBackend {
 public:
  explicit CostlySyncBackend(std::uint32_t spin) : spin_(spin) {}

  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  [[nodiscard]] std::uint64_t synced_size() const override {
    return inner_.synced_size();
  }
  void append(const std::uint8_t* data, std::size_t n) override {
    inner_.append(data, n);
  }
  [[nodiscard]] bool sync() override {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (std::uint32_t i = 0; i < spin_; ++i) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    }
    benchmark::DoNotOptimize(h);
    return inner_.sync();
  }
  std::size_t read(std::uint64_t offset, std::uint8_t* out,
                   std::size_t n) const override {
    return inner_.read(offset, out, n);
  }
  void truncate(std::uint64_t new_size) override { inner_.truncate(new_size); }
  void crash() override { inner_.crash(); }

 private:
  storage::durable::MemoryBackend inner_;
  std::uint32_t spin_;
};

void report_adaptive_watermark_curve() {
  // The adaptive controller against the whole static-watermark curve, per
  // state size, on a device with a modeled ~20us sync latency. The bar:
  // adaptive lands within 10% of the best static watermark (which it cannot
  // know ahead of time) and strictly beats every-commit.
  constexpr std::size_t kCommits = 20'000;
  constexpr std::uint32_t kSyncSpin = 20'000;
  std::cout << "\nAdaptive vs static watermarks (up to " << kCommits
            << " commits, modeled device sync latency, "
               "best of 3)\n";
  std::cout << std::left << std::setw(7) << "keys" << std::setw(14)
            << "policy" << std::setw(12) << "commits/s" << std::setw(14)
            << "max-lag-KB" << "vs-best-static\n";
  const std::vector<std::pair<std::string, SyncPolicy>> curve = {
      {"every-commit", SyncPolicy::every_commit()},
      {"bytes(1K)", SyncPolicy::bytes(1024)},
      {"bytes(4K)", SyncPolicy::bytes(4 * 1024)},
      {"bytes(16K)", SyncPolicy::bytes(16 * 1024)},
      {"bytes(64K)", SyncPolicy::bytes(64 * 1024)},
      {"bytes(256K)", SyncPolicy::bytes(256 * 1024)},
      // Frames ceiling disabled: the statics above carry no lag-frames
      // bound, so the curve compares byte controllers like for like. (The
      // default ceiling would bind first at small commit sizes — a
      // durability choice, not a throughput one.)
      {"adaptive", SyncPolicy::adaptive(8 * 1024, 512, 256 * 1024, 0)},
  };
  for (const std::size_t keys : {4, 64, 256}) {
    // Large states shrink the commit count so a cell stays sub-second; the
    // journal still crosses every watermark in the curve many times over.
    const std::size_t commits = keys >= 256 ? kCommits / 4 : kCommits;
    double best_static = 0.0;
    double every_commit = 0.0;
    double adaptive = 0.0;
    std::vector<std::pair<std::string, double>> rows;
    std::vector<double> lags;
    for (const auto& [name, policy] : curve) {
      // Best of three trials: the curve's verdict rides on ratios between
      // cells, so per-cell scheduling noise has to be squeezed out.
      double rate = 0.0;
      double max_lag_kb = 0.0;
      for (int trial = 0; trial < 3; ++trial) {
        DurableOptions options;
        options.sync = policy;
        DurabilityEngine engine(
            std::make_unique<CostlySyncBackend>(kSyncSpin),
            std::make_unique<storage::durable::MemoryBackend>(), options);
        StableStorage store;
        const auto start = std::chrono::steady_clock::now();
        run_commits(engine, store, commits, keys);
        (void)engine.sync_now();
        rate = std::max(rate, commits / (wall_ms(start) / 1000.0));
        max_lag_kb = engine.stats().max_lag_bytes / 1024.0;
      }
      rows.emplace_back(name, rate);
      lags.push_back(max_lag_kb);
      if (name == "every-commit") {
        every_commit = rate;
      } else if (name == "adaptive") {
        adaptive = rate;
      } else {
        best_static = std::max(best_static, rate);
      }
      bench::trajectory().record(
          "adaptive_curve/" + std::to_string(keys) + "keys/" + name, rate,
          "commits/s");
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::cout << std::left << std::setw(7) << keys << std::setw(14)
                << rows[i].first << std::setw(12)
                << static_cast<std::uint64_t>(rows[i].second) << std::setw(14)
                << std::fixed << std::setprecision(1) << lags[i]
                << std::setprecision(2) << rows[i].second / best_static
                << "x\n";
    }
    std::cout << "  keys=" << keys << ": adaptive at "
              << std::setprecision(1) << 100.0 * adaptive / best_static
              << "% of best static, " << std::setprecision(2)
              << adaptive / every_commit << "x every-commit\n";
    bench::trajectory().record(
        "adaptive_vs_best_static/" + std::to_string(keys) + "keys",
        100.0 * adaptive / best_static, "percent");
    bench::trajectory().record(
        "adaptive_vs_every_commit/" + std::to_string(keys) + "keys",
        adaptive / every_commit, "ratio");
  }
}

void report() {
  bench::banner("E13+E14+E15+E20: durable stable storage",
                "the §5.1 stable-storage assumption, made and measured");
  report_append_throughput();
  report_policy_frontier();
  report_recovery_latency();
  report_snapshot_effect();
  report_crash_sweep();
  report_ship_vs_full_copy();
  report_warm_relocation_mission();
  report_adaptive_watermark_curve();
  std::cout << "\n";
}

// --- google-benchmark timings ---

void BM_JournalAppend(benchmark::State& state) {
  const std::size_t keys = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kBatch = 256;
  for (auto _ : state) {
    DurableOptions options;
    options.sync = policy_by_index(state.range(1));
    auto engine = make_memory_engine(options);
    StableStorage store;
    run_commits(*engine, store, kBatch, keys);
    (void)engine->sync_now();
    benchmark::DoNotOptimize(engine->stats().bytes_appended);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_JournalAppend)
    ->ArgNames({"keys", "policy"})
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 3});

void BM_RecoveryReplay(benchmark::State& state) {
  const std::size_t records = static_cast<std::size_t>(state.range(0));
  auto engine = make_memory_engine();
  StableStorage store;
  run_commits(*engine, store, records, 4);
  engine->crash();
  for (auto _ : state) {
    StableStorage recovered;
    const RecoveryReport report = engine->recover_into(recovered);
    benchmark::DoNotOptimize(report.records_applied);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_RecoveryReplay)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_RecoveryWithSnapshots(benchmark::State& state) {
  const std::uint64_t interval = static_cast<std::uint64_t>(state.range(0));
  DurableOptions options;
  options.snapshot_every_epochs = interval;
  auto engine = make_memory_engine(options);
  StableStorage store;
  run_commits(*engine, store, 100'000, 4);
  engine->crash();
  for (auto _ : state) {
    StableStorage recovered;
    const RecoveryReport report = engine->recover_into(recovered);
    benchmark::DoNotOptimize(report.last_epoch);
  }
}
BENCHMARK(BM_RecoveryWithSnapshots)->Arg(0)->Arg(4096)->Arg(512);

void BM_FileBackendCommitSync(benchmark::State& state) {
  // The honest durability number: record appends + fsync on a real file,
  // under the selected sync policy. Policy 0 (every-commit) fsyncs each
  // record; the watermark policies amortize it — the E14 acceptance ratio
  // is this benchmark's items/s at policy 2 (bytes) over policy 0.
  const std::string path = "bench_recovery.tmp.wal";
  constexpr std::size_t kBatch = 64;
  for (auto _ : state) {
    auto file = std::make_unique<storage::durable::FileBackend>(path);
    file->truncate(0);
    DurableOptions options;
    options.sync = policy_by_index(state.range(0));
    DurabilityEngine engine(
        std::move(file),
        std::make_unique<storage::durable::MemoryBackend>(), options);
    StableStorage store;
    run_commits(engine, store, kBatch, 4);
    (void)engine.sync_now();
    benchmark::DoNotOptimize(engine.stats().syncs);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  std::remove(path.c_str());
}
BENCHMARK(BM_FileBackendCommitSync)
    ->ArgName("policy")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(3);

void BM_CrashSweep(benchmark::State& state) {
  support::CrashSweepOptions options;
  options.frames = static_cast<Cycle>(state.range(0));
  options.victim = support::synthetic_processor(0);
  const support::MissionFactory factory =
      sweep_factory(SyncPolicy::frames(4));
  for (auto _ : state) {
    const support::CrashSweepReport report =
        support::run_crash_sweep(factory, options);
    benchmark::DoNotOptimize(report.mismatches);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CrashSweep)->ArgName("frames")->Arg(12)->Arg(24);

void BM_JournalShip(benchmark::State& state) {
  // Ship-and-apply throughput: a fresh replica consumes a pre-built synced
  // journal in batches of the given byte budget. items/s is journal records
  // replayed into the standby store per second.
  const std::size_t budget = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRecords = 4'096;
  auto engine = make_memory_engine();
  StableStorage store;
  run_commits(*engine, store, kRecords, 4);
  for (auto _ : state) {
    storage::durable::ShippedReplica replica;
    storage::durable::JournalShipper shipper(*engine);
    storage::durable::ShipBatch batch;
    while (shipper.next_batch(replica.cursor(), budget, batch) ==
           storage::durable::ShipStatus::kBatch) {
      if (replica.apply(batch) != storage::durable::ApplyStatus::kApplied) {
        state.SkipWithError("shipped batch failed to apply");
        break;
      }
    }
    benchmark::DoNotOptimize(replica.store().fingerprint());
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
}
BENCHMARK(BM_JournalShip)
    ->ArgName("budget")
    ->Arg(512)
    ->Arg(4'096)
    ->Arg(64 * 1024);

}  // namespace

ARFS_BENCH_MAIN(report)
