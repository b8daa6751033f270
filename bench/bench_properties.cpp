// Experiment E2 — reproduces paper Table 2 (formal properties SP1-SP4).
//
// The PVS proofs assert the four properties over all traces of the model;
// this harness runs randomized fault campaigns over randomized systems and
// reports, for each shape, the number of reconfigurations observed and the
// SP1-SP4 verdicts (all must pass). The report records that table and the
// offline checker's cost per recorded frame in BENCH_bench_properties.json
// (wall time: reported, never gated); the timing section measures checker
// throughput over recorded traces.
#include <chrono>
#include <cstdio>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>

#include "arfs/core/system.hpp"
#include "arfs/props/online.hpp"
#include "arfs/props/report.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;

struct CampaignResult {
  std::uint64_t reconfigs = 0;
  std::uint64_t sp_failures = 0;
};

std::unique_ptr<core::System> make_system(const core::ReconfigSpec& spec,
                                           core::ReconfigPolicy policy,
                                           std::uint64_t seed) {
  core::SystemOptions options;
  options.scram.policy = policy;
  auto system = std::make_unique<core::System>(spec, options);
  Rng rng(seed);
  for (const core::AppDecl& decl : spec.apps()) {
    support::SimpleAppParams p;
    p.halt_frames = 1 + rng.uniform(0, 1);
    system->add_app(
        std::make_unique<support::SimpleApp>(decl.id, decl.name, p));
  }
  return system;
}

CampaignResult run_campaign(const core::ReconfigSpec& spec,
                            core::ReconfigPolicy policy, std::uint64_t seed,
                            std::size_t env_changes, Cycle frames) {
  const std::unique_ptr<core::System> system_ptr =
      make_system(spec, policy, seed);
  core::System& system = *system_ptr;
  Rng rng(seed * 31 + 7);
  sim::CampaignParams campaign;
  campaign.horizon = static_cast<SimTime>(frames - 100) * 10'000;
  campaign.environment_changes = env_changes;
  for (const env::FactorSpec& f : spec.factors().factors()) {
    campaign.factors.push_back(f.id);
    campaign.factor_min = f.min_value;
    campaign.factor_max = f.max_value;
  }
  system.set_fault_plan(sim::generate_campaign(campaign, rng));
  system.run(frames);

  const props::TraceReport report = props::check_trace(system.trace(), spec);
  CampaignResult result;
  result.reconfigs = report.reconfig_count;
  result.sp_failures = report.sp1_failures + report.sp2_failures +
                       report.sp3_failures + report.sp4_failures;
  return result;
}

/// The checkers' workload: the default random shape (seed 3) under the
/// buffer policy, 800 frames of a 24-change binary-factor campaign.
std::unique_ptr<core::System> checked_system(const core::ReconfigSpec& spec) {
  std::unique_ptr<core::System> system =
      make_system(spec, core::ReconfigPolicy::kBuffer, 3);
  Rng rng(11);
  sim::CampaignParams campaign;
  campaign.horizon = 700 * 10'000;
  campaign.environment_changes = 24;
  for (const env::FactorSpec& f : spec.factors().factors()) {
    campaign.factors.push_back(f.id);
  }
  campaign.factor_max = 1;
  system->set_fault_plan(sim::generate_campaign(campaign, rng));
  system->run(800);
  return system;
}

/// props::check_trace over checked_system()'s trace: best of 9 timed
/// blocks of 16 checks, in ns per recorded frame.
void report_check_cost() {
  const core::ReconfigSpec spec =
      support::make_random_spec(support::RandomSpecParams{}, 3);
  const std::unique_ptr<core::System> system = checked_system(spec);
  const trace::SysTrace& trace = system->trace();
  constexpr int kBlocks = 9;
  constexpr int kChecks = 16;
  std::uint64_t reconfigs = props::check_trace(trace, spec).reconfig_count;
  double best_ns = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kChecks; ++i) {
      reconfigs ^= props::check_trace(trace, spec).reconfig_count;
    }
    const auto stop = std::chrono::steady_clock::now();
    const double ns =
        std::chrono::duration<double, std::nano>(stop - start).count() /
        (kChecks * static_cast<double>(trace.size()));
    if (b == 0 || ns < best_ns) best_ns = ns;
  }
  benchmark::DoNotOptimize(reconfigs);
  char line[96];
  std::snprintf(line, sizeof line,
                "check_trace over %zu frames: %.1f ns/frame (best of %d "
                "blocks)\n",
                trace.size(), best_ns, kBlocks);
  std::cout << line;
  bench::trajectory().record("check_trace/ns_per_frame", best_ns, "ns");
}

void report() {
  bench::banner("E2: formal properties SP1-SP4", "paper Table 2");
  std::cout << "Every completed reconfiguration in every randomized campaign\n"
            << "must satisfy SP1 (bracketing), SP2 (correct choice), SP3\n"
            << "(bounded duration), SP4 (precondition at completion).\n\n";
  std::cout << std::left << std::setw(34) << "system shape" << std::setw(10)
            << "policy" << std::setw(8) << "seeds" << std::setw(12)
            << "reconfigs" << "SP failures\n";

  struct Shape {
    const char* label;
    const char* key;  ///< The shape's name in the JSON report.
    support::RandomSpecParams params;
    std::size_t env_changes;
  };
  std::vector<Shape> shapes;
  {
    Shape s;
    s.label = "3 apps / 4 configs / 2 factors";
    s.key = "3apps_4configs_2factors";
    s.env_changes = 16;
    shapes.push_back(s);
  }
  {
    Shape s;
    s.label = "5 apps / 6 configs / 3 factors";
    s.key = "5apps_6configs_3factors";
    s.params.apps = 5;
    s.params.configs = 6;
    s.params.factors = 3;
    s.params.dependencies = 3;
    s.env_changes = 24;
    shapes.push_back(s);
  }
  {
    Shape s;
    s.label = "8 apps / 3 configs / 2 factors";
    s.key = "8apps_3configs_2factors";
    s.params.apps = 8;
    s.params.configs = 3;
    s.params.dependencies = 5;
    s.env_changes = 16;
    shapes.push_back(s);
  }

  for (const Shape& shape : shapes) {
    for (const core::ReconfigPolicy policy :
         {core::ReconfigPolicy::kBuffer, core::ReconfigPolicy::kImmediate}) {
      std::uint64_t reconfigs = 0;
      std::uint64_t failures = 0;
      const std::size_t seeds = 10;
      for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const core::ReconfigSpec spec =
            support::make_random_spec(shape.params, seed);
        const CampaignResult r =
            run_campaign(spec, policy, seed, shape.env_changes, 800);
        reconfigs += r.reconfigs;
        failures += r.sp_failures;
      }
      const char* policy_name =
          policy == core::ReconfigPolicy::kBuffer ? "buffer" : "immediate";
      std::cout << std::left << std::setw(34) << shape.label << std::setw(10)
                << policy_name << std::setw(8) << seeds << std::setw(12)
                << reconfigs << failures
                << (failures == 0 ? "  [all hold]" : "  [BROKEN]") << "\n";
      const std::string row =
          std::string("e2/") + shape.key + "/" + policy_name;
      bench::trajectory().record(row + "/reconfigs",
                                 static_cast<double>(reconfigs), "count");
      bench::trajectory().record(row + "/sp_failures",
                                 static_cast<double>(failures), "count");
    }
  }
  std::cout << "\n";
  report_check_cost();
  std::cout << "\n";
}

void bm_check_trace(benchmark::State& state) {
  const core::ReconfigSpec spec =
      support::make_random_spec(support::RandomSpecParams{}, 3);
  const std::unique_ptr<core::System> system_ptr = checked_system(spec);
  const core::System& system = *system_ptr;

  for (auto _ : state) {
    const props::TraceReport report =
        props::check_trace(system.trace(), spec);
    benchmark::DoNotOptimize(report.reconfig_count);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(system.trace().size()));
  state.SetLabel("items = trace frames checked");
}
BENCHMARK(bm_check_trace)->Unit(benchmark::kMicrosecond);

void bm_single_reconfig_check(benchmark::State& state) {
  support::ChainSpecParams params;
  const core::ReconfigSpec spec = support::make_chain_spec(params);
  core::System system(spec);
  for (std::size_t a = 0; a < params.apps; ++a) {
    system.add_app(std::make_unique<support::SimpleApp>(
        support::synthetic_app(a), "a"));
  }
  system.run(2);
  system.set_factor(support::kChainSeverityFactor, 1);
  system.run(10);
  const auto reconfigs = trace::get_reconfigs(system.trace());

  for (auto _ : state) {
    const props::ReconfigVerdict v =
        props::check_all(system.trace(), reconfigs.front(), spec);
    benchmark::DoNotOptimize(v.sp1.holds);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_single_reconfig_check)->Unit(benchmark::kNanosecond);

void bm_online_monitor(benchmark::State& state) {
  const core::ReconfigSpec spec =
      support::make_random_spec(support::RandomSpecParams{}, 3);
  const std::unique_ptr<core::System> system_ptr = checked_system(spec);
  const core::System& system = *system_ptr;

  for (auto _ : state) {
    props::OnlineMonitor monitor(spec, 10'000);
    for (Cycle c = 0; c < system.trace().size(); ++c) {
      benchmark::DoNotOptimize(
          monitor.observe(system.trace().at(c)).has_value());
    }
    benchmark::DoNotOptimize(monitor.stats().reconfigs_checked);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(system.trace().size()));
  state.SetLabel("streaming frames through OnlineMonitor");
}
BENCHMARK(bm_online_monitor)->Unit(benchmark::kMicrosecond);

}  // namespace

ARFS_BENCH_MAIN(report)
