// Edge cases of the assembled System: applications turning off and on
// across configurations, the SCRAM's stable-storage protocol record, storage
// history, budget enforcement scope, and degenerate failure situations.
#include <gtest/gtest.h>

#include <memory>

#include "arfs/core/system.hpp"
#include "arfs/props/report.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "arfs/trace/reconfigs.hpp"

namespace arfs::core {
namespace {

using support::SimpleApp;
using support::synthetic_app;
using support::synthetic_config;
using support::synthetic_processor;
using support::synthetic_spec;

constexpr FactorId kMode{77};

/// Two configs: app 1 runs in both; app 2 runs only in config 0 (it is off
/// in config 1). Factor kMode selects the config.
ReconfigSpec off_on_spec() {
  ReconfigSpec spec;
  for (std::size_t a = 0; a < 2; ++a) {
    AppDecl decl;
    decl.id = synthetic_app(a);
    decl.name = "app" + std::to_string(a);
    decl.specs = {FunctionalSpec{synthetic_spec(a, 0), "s", {}, 100, 400}};
    spec.declare_app(std::move(decl));
  }
  spec.declare_factor(env::FactorSpec{kMode, "mode", 0, 1, 0});

  Configuration both;
  both.id = synthetic_config(0);
  both.name = "both-on";
  both.assignment = {{synthetic_app(0), synthetic_spec(0, 0)},
                     {synthetic_app(1), synthetic_spec(1, 0)}};
  both.placement = {{synthetic_app(0), synthetic_processor(0)},
                    {synthetic_app(1), synthetic_processor(1)}};
  spec.declare_config(std::move(both));

  Configuration solo;
  solo.id = synthetic_config(1);
  solo.name = "app2-off";
  solo.assignment = {{synthetic_app(0), synthetic_spec(0, 0)}};
  solo.placement = {{synthetic_app(0), synthetic_processor(0)}};
  solo.safe = true;
  spec.declare_config(std::move(solo));

  for (const std::size_t i : {0u, 1u}) {
    for (const std::size_t j : {0u, 1u}) {
      spec.set_transition_bound(synthetic_config(i), synthetic_config(j), 8);
    }
  }
  spec.set_choose([](ConfigId, const env::EnvState& e) {
    return e.at(kMode) == 0 ? synthetic_config(0) : synthetic_config(1);
  });
  spec.set_initial_config(synthetic_config(0));
  spec.validate();
  return spec;
}

/// One app that config 0 places on processor 0 and config 1 on processor
/// 1. Factor kMode selects the config.
ReconfigSpec moving_spec() {
  ReconfigSpec spec;
  AppDecl decl;
  decl.id = synthetic_app(0);
  decl.name = "app0";
  decl.specs = {FunctionalSpec{synthetic_spec(0, 0), "s", {}, 100, 400}};
  spec.declare_app(std::move(decl));
  spec.declare_factor(env::FactorSpec{kMode, "mode", 0, 1, 0});
  for (const std::size_t c : {0u, 1u}) {
    Configuration config;
    config.id = synthetic_config(c);
    config.name = c == 0 ? "home" : "away";
    config.assignment = {{synthetic_app(0), synthetic_spec(0, 0)}};
    config.placement = {{synthetic_app(0), synthetic_processor(c)}};
    config.safe = true;
    spec.declare_config(std::move(config));
  }
  for (const std::size_t i : {0u, 1u}) {
    for (const std::size_t j : {0u, 1u}) {
      spec.set_transition_bound(synthetic_config(i), synthetic_config(j), 8);
    }
  }
  spec.set_choose([](ConfigId, const env::EnvState& e) {
    return e.at(kMode) == 0 ? synthetic_config(0) : synthetic_config(1);
  });
  spec.set_initial_config(synthetic_config(0));
  spec.validate();
  return spec;
}

TEST(SystemExecutionHost, AppOffInTheTargetWindsDownOnItsOldHost) {
  // Config 1 turns app 1 off. Its host, processor 1, survives, so the app
  // runs its halt, prepare and initialize stages there.
  const ReconfigSpec spec = off_on_spec();
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));
  system.run(5);
  system.set_factor(kMode, 1);
  system.run(10);

  const auto& app1 = static_cast<SimpleApp&>(system.app(synthetic_app(1)));
  EXPECT_FALSE(app1.current_spec().has_value());
  EXPECT_EQ(app1.halts(), 1u);
  EXPECT_EQ(app1.prepares(), 1u);
  EXPECT_EQ(app1.initializes(), 1u);
  EXPECT_EQ(system.region_host(synthetic_app(1)), synthetic_processor(1));
}

TEST(SystemExecutionHost, AppWhoseTargetHostIsDownRunsNowhere) {
  // Config 1 moves the app to processor 1, which is down. The app halts on
  // processor 0, its host, but prepare and initialize belong to the target
  // host: with none running they must not run on processor 0 either, so
  // the app signals a fault and the reconfiguration stalls.
  const ReconfigSpec spec = moving_spec();
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.run(3);
  system.processors().processor(synthetic_processor(1)).fail(3);
  system.set_factor(kMode, 1);
  system.run(20);

  const auto& app0 = static_cast<SimpleApp&>(system.app(synthetic_app(0)));
  EXPECT_EQ(app0.halts(), 1u);
  EXPECT_EQ(app0.prepares(), 0u);
  EXPECT_EQ(app0.initializes(), 0u);
  EXPECT_EQ(system.region_host(synthetic_app(0)), synthetic_processor(0));
  EXPECT_FALSE(system.processors()
                   .processor(synthetic_processor(0))
                   .poll_stable()
                   .contains("a1/initialized_for"));
  EXPECT_TRUE(trace::incomplete_reconfig(system.trace()).has_value());
  EXPECT_GT(system.health().fault_count(), 0u);
}

TEST(SystemOffOn, AppTurnsOffAndStopsWorking) {
  const ReconfigSpec spec = off_on_spec();
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));
  system.run(5);
  system.set_factor(kMode, 1);
  system.run(10);

  const auto& app1 = static_cast<SimpleApp&>(system.app(synthetic_app(1)));
  EXPECT_FALSE(app1.current_spec().has_value());
  const std::uint64_t at_off = app1.work_count();
  system.run(10);
  EXPECT_EQ(app1.work_count(), at_off);  // no further AFTAs while off

  const props::TraceReport report = props::check_trace(system.trace(), spec);
  EXPECT_TRUE(report.all_hold()) << props::render(report);
}

TEST(SystemOffOn, AppTurnsBackOnAndResumes) {
  const ReconfigSpec spec = off_on_spec();
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));
  system.run(5);
  system.set_factor(kMode, 1);
  system.run(10);
  system.set_factor(kMode, 0);
  system.run(10);

  const auto& app1 = static_cast<SimpleApp&>(system.app(synthetic_app(1)));
  EXPECT_EQ(app1.current_spec(), synthetic_spec(1, 0));
  EXPECT_GT(app1.work_count(), 0u);
  EXPECT_EQ(system.scram().current_config(), synthetic_config(0));

  const props::TraceReport report = props::check_trace(system.trace(), spec);
  EXPECT_TRUE(report.all_hold()) << props::render(report);
}

TEST(SystemProtocolRecord, ScramWritesConfigurationStatus) {
  const ReconfigSpec spec = off_on_spec();
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));
  system.run(3);

  // Normal operation: the recorded status is "normal".
  const auto& scram_proc = system.processors().processor(
      system.scram_processor());
  const auto status =
      scram_proc.poll_stable().read_as<std::string>("scram/a1/status");
  ASSERT_TRUE(status);
  EXPECT_EQ(status.value(), "normal");

  // During the halt frame the committed value becomes "halt".
  system.set_factor(kMode, 1);
  system.run(2);  // frame 3: signal; frame 4: halt (committed at end)
  const auto halt_status =
      scram_proc.poll_stable().read_as<std::string>("scram/a1/status");
  ASSERT_TRUE(halt_status);
  EXPECT_EQ(halt_status.value(), "halt");
}

TEST(SystemHistory, StorageHistoryRecordsCommits) {
  const ReconfigSpec spec = off_on_spec();
  SystemOptions options;
  options.record_storage_history = true;
  System system(spec, options);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));
  system.run(5);

  const auto& proc = system.processors().processor(synthetic_processor(0));
  EXPECT_GE(proc.poll_stable().history().size(), 5u);  // work_count commits
}

TEST(SystemNoTrace, RecordTraceOffKeepsTraceEmpty) {
  const ReconfigSpec spec = off_on_spec();
  SystemOptions options;
  options.record_trace = false;
  System system(spec, options);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));
  system.run(50);
  EXPECT_TRUE(system.trace().empty());
  EXPECT_EQ(system.stats().frames_run, 50u);
}

TEST(SystemBudget, OverrunOnlyCheckedForNormalFrames) {
  // A forced overrun scheduled during a reconfiguration frame is charged
  // when the application next runs a normal AFTA, not during phases.
  const ReconfigSpec spec = off_on_spec();
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));

  sim::FaultPlan plan;
  plan.timing_overrun(6 * 10'000, synthetic_app(0));  // during the SFTA
  system.set_fault_plan(std::move(plan));
  system.run(5);
  system.set_factor(kMode, 1);
  system.run(15);
  EXPECT_EQ(system.health().overrun_count(), 1u);
}

TEST(SystemDegenerate, ScramProcessorFailureFreezesReconfiguration) {
  // The architecture assumes a dependable SCRAM host (section 3); this test
  // documents what the simulation does if that assumption is violated: the
  // protocol record stops, but applications keep running their AFTAs.
  const ReconfigSpec spec = off_on_spec();
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));
  system.run(2);
  system.processors().processor(system.scram_processor()).fail(2);
  system.run(10);

  const auto& app0 = static_cast<SimpleApp&>(system.app(synthetic_app(0)));
  EXPECT_EQ(app0.work_count(), 12u);
}

TEST(SystemDegenerate, TargetHostDownStallsAndSignals) {
  // Config 1 places app 0 on processor 0; if that processor dies at the
  // same instant the mode demands... build: mode=1 -> config 1 (app0 on
  // proc 0). Kill processor 0 and set mode=1: initialize cannot run, the
  // application raises a fault signal, and the reconfiguration stalls
  // rather than completing incorrectly.
  const ReconfigSpec spec = off_on_spec();
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(synthetic_app(1), "b"));
  system.run(3);

  sim::FaultPlan plan;
  plan.fail_processor(4 * 10'000, synthetic_processor(0));
  system.set_fault_plan(std::move(plan));
  system.set_factor(kMode, 1);
  system.run(20);

  // No completed reconfiguration: the trace ends mid-reconfiguration.
  EXPECT_TRUE(trace::get_reconfigs(system.trace()).empty());
  EXPECT_TRUE(trace::incomplete_reconfig(system.trace()).has_value());
  EXPECT_GT(system.health().fault_count(), 0u);
}

}  // namespace
}  // namespace arfs::core
