// Experiment E1 — reproduces paper Table 1 (SFTA phases).
//
// Runs the SFTA protocol in simulation for each shape the paper's model
// admits (no dependency, one dependency, multi-frame stages) and prints the
// observed frame-by-frame message/action/predicate table next to the
// expected Table 1 structure. The timing section measures the cost of
// driving the protocol through the full frame pipeline; the report also
// times a steady normal frame (trace off and on) and a System::digest() of
// the live system at 2/8/32/64 apps, the steady durable frame (alone and shipping to a
// one-member cohort) at 2 and 32 apps, plus the digest of a durable 2-app
// chain, and records the costs in BENCH_bench_sfta_phases.json (wall time:
// reported, never gated).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <memory>
#include <string>

#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "arfs/trace/export.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;

void run_case(const std::string& label, support::SimpleAppParams app_params,
              bool with_dependency) {
  support::ChainSpecParams params;
  params.configs = 3;
  params.apps = 2;
  params.transition_bound = 16;
  core::ReconfigSpec spec = support::make_chain_spec(params);
  if (with_dependency) {
    spec.add_dependency(core::Dependency{support::synthetic_app(1),
                                         support::synthetic_app(0),
                                         core::DepPhase::kInitialize,
                                         std::nullopt});
  }

  core::System system(spec);
  system.add_app(std::make_unique<support::SimpleApp>(
      support::synthetic_app(0), "a0", app_params));
  system.add_app(std::make_unique<support::SimpleApp>(
      support::synthetic_app(1), "a1", app_params));
  system.run(3);
  system.set_factor(support::kChainSeverityFactor, 1);
  system.run(16);

  const auto reconfigs = trace::get_reconfigs(system.trace());
  std::cout << "\n--- " << label << " ---\n";
  if (reconfigs.empty()) {
    std::cout << "(no reconfiguration recorded)\n";
    return;
  }
  std::cout << trace::render_phase_table(system.trace(), reconfigs.front());
}

/// A chain-spec system of `spec`'s apps (the steady normal frame: no
/// reconfiguration, no events), with the trace off unless `traced`.
/// Durable systems use frames(4) group commit and a snapshot every 16
/// epochs; `cohort` > 0 also ships each journal to a cohort of that many
/// members.
std::unique_ptr<core::System> normal_frame_system(
    const core::ReconfigSpec& spec, bool durable = false,
    std::uint32_t cohort = 0, bool traced = false) {
  core::SystemOptions options;
  options.record_trace = traced;
  options.durable_storage = durable;
  options.durability.sync = storage::durable::SyncPolicy::frames(4);
  options.durability.snapshot_every_epochs = 16;
  if (cohort > 0) {
    options.journal_shipping = true;
    options.quorum_replicas = cohort;
  }
  auto system = std::make_unique<core::System>(spec, options);
  for (const core::AppDecl& decl : spec.apps()) {
    system->add_app(std::make_unique<support::SimpleApp>(decl.id, "a"));
  }
  return system;
}

constexpr int kBlocks = 9;

/// Best of kBlocks timed blocks of `frames` frames of `system`, after one
/// untimed warm-up block, in ns per frame.
double best_frame_ns(core::System& system, Cycle frames) {
  system.run(frames);  // warm-up block
  double best_ns = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    const auto start = std::chrono::steady_clock::now();
    system.run(frames);
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        static_cast<double>(frames);
    if (b == 0 || ns < best_ns) best_ns = ns;
  }
  return best_ns;
}

/// Best of kBlocks timed blocks of `n` digests of `system`, in ns per
/// digest (the minimum filters scheduler noise on a shared host).
double best_digest_ns(const core::System& system, int n) {
  std::uint64_t sink = system.digest();  // warm-up
  double best_ns = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) sink ^= system.digest();
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() / n;
    if (b == 0 || ns < best_ns) best_ns = ns;
  }
  benchmark::DoNotOptimize(sink);
  return best_ns;
}

/// Steady normal-frame cost at several app counts: best of 9 timed blocks
/// of about 4k app-frames each. Recorded as normal_frame/<N>apps/
/// ns_per_frame and .../ns_per_app_frame, and the same frame with the
/// trace on as normal_frame_traced/<N>apps/ns_per_frame. The live digest
/// of the untraced warm system is timed the same way, as
/// digest/<N>apps/ns_per_digest.
void report_frame_cost() {
  std::cout << "\n--- steady normal-frame and digest cost (best of "
            << kBlocks << " blocks) ---\n"
            << "apps | ns/frame | ns/app/frame | traced ns/frame | "
               "ns/digest\n";
  for (const std::size_t apps : {2u, 8u, 32u, 64u}) {
    support::ChainSpecParams params;
    params.apps = apps;
    const core::ReconfigSpec spec = support::make_chain_spec(params);
    const std::unique_ptr<core::System> system = normal_frame_system(spec);
    const Cycle frames = static_cast<Cycle>(std::max<std::size_t>(
        64, 4096 / apps));
    const double best_ns = best_frame_ns(*system, frames);
    const double per_app = best_ns / static_cast<double>(apps);
    const double digest_ns =
        best_digest_ns(*system, static_cast<int>(frames));
    const double traced_ns = best_frame_ns(
        *normal_frame_system(spec, /*durable=*/false, /*cohort=*/0,
                             /*traced=*/true),
        frames);
    char line[96];
    std::snprintf(line, sizeof line, "%4zu | %8.0f | %12.1f | %15.0f | %9.0f\n",
                  apps, best_ns, per_app, traced_ns, digest_ns);
    std::cout << line;
    const std::string n = std::to_string(apps) + "apps";
    const std::string row = "normal_frame/" + n;
    bench::trajectory().record(row + "/ns_per_frame", best_ns, "ns");
    bench::trajectory().record(row + "/ns_per_app_frame", per_app, "ns");
    bench::trajectory().record("normal_frame_traced/" + n + "/ns_per_frame",
                               traced_ns, "ns");
    bench::trajectory().record(
        "digest/" + std::to_string(apps) + "apps/ns_per_digest", digest_ns,
        "ns");
  }

  // The steady durable frame, the ruler of the durable write path: journal
  // encode and group commit, snapshots with GC and compaction, and (with a
  // cohort) shipping and the replicas' own durable apply.
  std::cout << "\n--- steady durable frame (frames(4), a snapshot every 16 "
            << "epochs, trace off, best of " << kBlocks << " blocks) ---\n"
            << "apps | durable ns/frame | + 1-member cohort ns/frame\n";
  for (const std::size_t apps : {2u, 32u}) {
    support::ChainSpecParams params;
    params.apps = apps;
    const core::ReconfigSpec spec = support::make_chain_spec(params);
    const Cycle frames = static_cast<Cycle>(std::max<std::size_t>(
        64, 4096 / apps));
    const double durable_ns =
        best_frame_ns(*normal_frame_system(spec, /*durable=*/true), frames);
    const double ship_ns = best_frame_ns(
        *normal_frame_system(spec, /*durable=*/true, /*cohort=*/1), frames);
    char line[80];
    std::snprintf(line, sizeof line, "%4zu | %16.0f | %25.0f\n", apps,
                  durable_ns, ship_ns);
    std::cout << line;
    const std::string n = std::to_string(apps) + "apps";
    bench::trajectory().record("durable_frame/" + n + "/ns_per_frame",
                               durable_ns, "ns");
    bench::trajectory().record("durable_ship_frame/" + n + "/ns_per_frame",
                               ship_ns, "ns");
  }

  // A durable chain's digest also hashes every byte of its devices: 2 apps
  // after 512 frames of frames(4) group commit, a snapshot every 16 epochs.
  const core::ReconfigSpec spec = support::make_chain_spec({});
  const std::unique_ptr<core::System> durable =
      normal_frame_system(spec, /*durable=*/true);
  durable->run(512);
  const double durable_ns = best_digest_ns(*durable, 256);
  char line[80];
  std::snprintf(line, sizeof line,
                "durable, 2 apps, after 512 frames: %.0f ns/digest\n",
                durable_ns);
  std::cout << line;
  bench::trajectory().record("digest/durable_2apps/ns_per_digest", durable_ns,
                             "ns");
}

void report() {
  bench::banner("E1: SFTA phase protocol", "paper Table 1");
  std::cout
      << "Expected (Table 1): frame 0 failure signal -> SCRAM;\n"
      << "frame 1 halt -> all apps (postconditions); frame 2 prepare\n"
      << "(transition conditions); frame 3 initialize (preconditions),\n"
      << "after which applications operate normally in Ct.\n";

  run_case("canonical: single-frame stages, no dependencies",
           support::SimpleAppParams{}, false);
  run_case("initialize dependency (paper 7.1 shape): +1 frame",
           support::SimpleAppParams{}, true);
  support::SimpleAppParams slow;
  slow.halt_frames = 2;
  run_case("two-frame halt stage: +1 frame, bounded by T", slow, false);

  // The avionics instantiation's own Full -> Reduced SFTA.
  avionics::UavSystem uav;
  uav.run(5);
  uav.electrical().fail_alternator(0);
  uav.run(12);
  const auto reconfigs = trace::get_reconfigs(uav.system().trace());
  std::cout << "\n--- avionics Full -> Reduced (section 7.1) ---\n";
  if (!reconfigs.empty()) {
    std::cout << trace::render_phase_table(uav.system().trace(),
                                           reconfigs.front());
  }
  report_frame_cost();
  std::cout << "\n";
}

void bm_full_sfta(benchmark::State& state) {
  support::ChainSpecParams params;
  params.configs = 2;
  params.transition_bound = 16;
  const core::ReconfigSpec spec = support::make_chain_spec(params);
  for (auto _ : state) {
    core::System system(spec);
    system.add_app(std::make_unique<support::SimpleApp>(
        support::synthetic_app(0), "a0"));
    system.add_app(std::make_unique<support::SimpleApp>(
        support::synthetic_app(1), "a1"));
    system.run(1);
    system.set_factor(support::kChainSeverityFactor, 1);
    system.run(5);  // one full SFTA
    benchmark::DoNotOptimize(system.trace().size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_full_sfta)->Unit(benchmark::kMicrosecond);

void bm_normal_frame(benchmark::State& state) {
  support::ChainSpecParams params;
  params.apps = state.range(0);
  const core::ReconfigSpec spec = support::make_chain_spec(params);
  const std::unique_ptr<core::System> system = normal_frame_system(spec);
  for (auto _ : state) {
    system->run_frame();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_normal_frame)->Arg(2)->Arg(8)->Arg(32)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

ARFS_BENCH_MAIN(report)
