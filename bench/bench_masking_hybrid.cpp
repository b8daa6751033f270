// Experiment E10 — masking, reconfiguration, and the hybrid (section 5.2).
//
// Simulates three system designs under the same processor-failure campaign:
//   masking   — enough spare fail-stop processors that every failure is
//               absorbed by moving the app to a spare at full service;
//   reconfig  — minimal hardware; failures trigger degradation to a safe
//               configuration (our architecture);
//   hybrid    — the critical app is masked by a spare, the rest reconfigure.
// Reports hardware used, full-service availability, and any-service
// availability — the shape the paper argues: masking buys availability with
// hardware, reconfiguration keeps safety with much less.
#include <iomanip>
#include <iostream>
#include <memory>

#include "arfs/core/system.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;
using support::synthetic_app;
using support::synthetic_config;
using support::synthetic_processor;
using support::synthetic_spec;

constexpr FactorId kProcFactor0{60};
constexpr FactorId kProcFactor1{61};

struct DesignResult {
  int processors = 0;
  double full_service_fraction = 0.0;      ///< Both apps at full specs.
  double critical_service_fraction = 0.0;  ///< App 0 at its full spec.
  double any_service_fraction = 0.0;       ///< All apps operating normally.
};

core::AppDecl make_app(std::size_t index) {
  core::AppDecl decl;
  decl.id = synthetic_app(index);
  decl.name = "app-" + std::to_string(index);
  decl.specs = {
      core::FunctionalSpec{synthetic_spec(index, 0), "full", {}, 100, 400},
      core::FunctionalSpec{synthetic_spec(index, 1), "degraded", {}, 50, 200},
  };
  return decl;
}

/// Two apps. Configurations differ per design; the campaign fails processor
/// 0 at frame 30 and repairs it at frame 120 over a 300-frame mission.
DesignResult run_design(const std::string& design) {
  core::ReconfigSpec spec;
  spec.declare_app(make_app(0));
  spec.declare_app(make_app(1));
  spec.declare_factor(env::FactorSpec{kProcFactor0, "proc0", 0, 1, 0});
  spec.declare_factor(env::FactorSpec{kProcFactor1, "proc1", 0, 1, 0});

  int processors = 0;
  if (design == "masking") {
    // Apps on processors 0 and 1; spare processors 2 and 3. Failure of a
    // host moves its app to a spare at *full* service.
    processors = 4;
    core::Configuration normal;
    normal.id = synthetic_config(0);
    normal.name = "normal";
    normal.assignment = {{synthetic_app(0), synthetic_spec(0, 0)},
                         {synthetic_app(1), synthetic_spec(1, 0)}};
    normal.placement = {{synthetic_app(0), synthetic_processor(0)},
                        {synthetic_app(1), synthetic_processor(1)}};
    normal.safe = true;
    normal.service_rank = 2;
    spec.declare_config(std::move(normal));

    core::Configuration spare;  // app 0 masked onto spare processor 2
    spare.id = synthetic_config(1);
    spare.name = "on-spare";
    spare.assignment = {{synthetic_app(0), synthetic_spec(0, 0)},
                        {synthetic_app(1), synthetic_spec(1, 0)}};
    spare.placement = {{synthetic_app(0), synthetic_processor(2)},
                       {synthetic_app(1), synthetic_processor(1)}};
    spare.safe = true;
    spare.service_rank = 2;
    spec.declare_config(std::move(spare));
  } else if (design == "reconfig") {
    // Two processors, no spares: failure degrades both apps onto the
    // survivor.
    processors = 2;
    core::Configuration normal;
    normal.id = synthetic_config(0);
    normal.name = "normal";
    normal.assignment = {{synthetic_app(0), synthetic_spec(0, 0)},
                         {synthetic_app(1), synthetic_spec(1, 0)}};
    normal.placement = {{synthetic_app(0), synthetic_processor(0)},
                        {synthetic_app(1), synthetic_processor(1)}};
    normal.service_rank = 2;
    spec.declare_config(std::move(normal));

    core::Configuration degraded;
    degraded.id = synthetic_config(1);
    degraded.name = "degraded";
    degraded.assignment = {{synthetic_app(0), synthetic_spec(0, 1)},
                           {synthetic_app(1), synthetic_spec(1, 1)}};
    degraded.placement = {{synthetic_app(0), synthetic_processor(1)},
                          {synthetic_app(1), synthetic_processor(1)}};
    degraded.safe = true;
    degraded.service_rank = 1;
    spec.declare_config(std::move(degraded));
  } else {  // hybrid
    // App 0 is critical: masked onto spare processor 2 at full service.
    // App 1 reconfigures to its degraded spec on the survivor.
    processors = 3;
    core::Configuration normal;
    normal.id = synthetic_config(0);
    normal.name = "normal";
    normal.assignment = {{synthetic_app(0), synthetic_spec(0, 0)},
                         {synthetic_app(1), synthetic_spec(1, 0)}};
    normal.placement = {{synthetic_app(0), synthetic_processor(0)},
                        {synthetic_app(1), synthetic_processor(1)}};
    normal.service_rank = 2;
    spec.declare_config(std::move(normal));

    core::Configuration mixed;
    mixed.id = synthetic_config(1);
    mixed.name = "mixed";
    mixed.assignment = {{synthetic_app(0), synthetic_spec(0, 0)},
                        {synthetic_app(1), synthetic_spec(1, 1)}};
    mixed.placement = {{synthetic_app(0), synthetic_processor(2)},
                       {synthetic_app(1), synthetic_processor(1)}};
    mixed.safe = true;
    mixed.service_rank = 1;
    spec.declare_config(std::move(mixed));
  }

  spec.set_transition_bound(synthetic_config(0), synthetic_config(1), 8);
  spec.set_transition_bound(synthetic_config(1), synthetic_config(0), 8);
  spec.set_choose([](ConfigId, const env::EnvState& e) {
    return e.at(kProcFactor0) == 0 ? synthetic_config(0)
                                   : synthetic_config(1);
  });
  spec.set_initial_config(synthetic_config(0));
  spec.validate();

  core::System system(spec);
  system.add_app(std::make_unique<support::SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<support::SimpleApp>(synthetic_app(1), "b"));
  system.bind_processor_factor(synthetic_processor(0), kProcFactor0);
  system.bind_processor_factor(synthetic_processor(1), kProcFactor1);

  sim::FaultPlan plan;
  plan.fail_processor(30 * 10'000, synthetic_processor(0));
  plan.repair_processor(120 * 10'000, synthetic_processor(0));
  system.set_fault_plan(std::move(plan));

  const Cycle mission = 300;
  system.run(mission);

  // Availability from the trace. Full service means both applications run
  // their full specifications (the masking design's on-spare configuration
  // qualifies); critical service means the critical app 0 runs its full
  // specification (the hybrid preserves this through the failure).
  Cycle full = 0;
  Cycle critical = 0;
  Cycle any = 0;
  for (Cycle c = 0; c < system.trace().size(); ++c) {
    const trace::SysStateView s = system.trace().at(c);
    if (!trace::all_normal(s)) continue;
    ++any;
    const bool app0_full = trace::find_app(s, synthetic_app(0))->spec ==
                           synthetic_spec(0, 0);
    const bool app1_full = trace::find_app(s, synthetic_app(1))->spec ==
                           synthetic_spec(1, 0);
    if (app0_full) ++critical;
    if (app0_full && app1_full) ++full;
  }

  DesignResult result;
  result.processors = processors;
  result.full_service_fraction =
      static_cast<double>(full) / static_cast<double>(mission);
  result.critical_service_fraction =
      static_cast<double>(critical) / static_cast<double>(mission);
  result.any_service_fraction =
      static_cast<double>(any) / static_cast<double>(mission);
  return result;
}

void report() {
  bench::banner("E10: masking vs reconfiguration vs hybrid",
                "paper sections 5.1-5.2 (simulated)");
  std::cout << "One processor failure at frame 30, repair at frame 120,\n"
            << "300-frame mission. Masking keeps full service with double\n"
            << "the hardware; reconfiguration keeps (degraded) service with\n"
            << "half; the hybrid sits between (section 5.2).\n\n";
  std::cout << std::left << std::setw(12) << "design" << std::setw(14)
            << "processors" << std::setw(16) << "full-service"
            << std::setw(20) << "critical-service" << "any-service\n";
  for (const std::string design : {"masking", "reconfig", "hybrid"}) {
    const DesignResult r = run_design(design);
    std::cout << std::left << std::setw(12) << design << std::setw(14)
              << r.processors << std::setw(16) << std::fixed
              << std::setprecision(3) << r.full_service_fraction
              << std::setw(20) << r.critical_service_fraction
              << r.any_service_fraction << "\n";
  }
  std::cout << "\n";
}

void bm_design(benchmark::State& state) {
  const char* designs[] = {"masking", "reconfig", "hybrid"};
  const std::string design = designs[state.range(0)];
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_design(design).any_service_fraction);
  }
  state.SetLabel(design);
}
BENCHMARK(bm_design)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace

ARFS_BENCH_MAIN(report)
