// Tests of configuration-derived partition schedules and the
// schedulability obligation.
#include <gtest/gtest.h>

#include "arfs/analysis/schedulability.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::analysis {
namespace {

TEST(Schedulability, UavConfigurationsAllFit) {
  const core::ReconfigSpec spec = avionics::make_uav_spec();
  const auto findings = check_schedulability(spec, 20'000);
  EXPECT_TRUE(all_schedulable(findings));
  EXPECT_FALSE(findings.empty());
}

TEST(Schedulability, ReducedServiceSharesOneProcessor) {
  const core::ReconfigSpec spec = avionics::make_uav_spec();
  const BuiltSchedule built =
      build_schedule(spec, avionics::kReducedService, 20'000);
  // Both partitions on computer 1, packed back to back without overlap.
  ASSERT_EQ(built.table.windows().size(), 2u);
  for (const rtos::Window& w : built.table.windows()) {
    EXPECT_EQ(w.processor, avionics::kComputer1);
  }
  const auto order = built.table.activation_order();
  EXPECT_EQ(order[0].offset + order[0].length, order[1].offset);
}

TEST(Schedulability, MinimalServiceHasOnePartition) {
  const core::ReconfigSpec spec = avionics::make_uav_spec();
  const BuiltSchedule built =
      build_schedule(spec, avionics::kMinimalService, 20'000);
  EXPECT_EQ(built.table.windows().size(), 1u);  // autopilot is off
  EXPECT_TRUE(built.partitions.contains(avionics::kFcs));
  EXPECT_FALSE(built.partitions.contains(avionics::kAutopilot));
}

TEST(Schedulability, WindowLengthsComeFromSpecBudgets) {
  const core::ReconfigSpec spec = avionics::make_uav_spec();
  const BuiltSchedule built =
      build_schedule(spec, avionics::kFullService, 20'000);
  for (const rtos::Window& w : built.table.windows()) {
    const AppId app{w.partition.value()};
    const SpecId assigned =
        *spec.config(avionics::kFullService).spec_of(app);
    EXPECT_EQ(w.length, spec.spec(assigned).budget_us);
  }
}

TEST(Schedulability, OverloadedFrameDetected) {
  const core::ReconfigSpec spec = avionics::make_uav_spec();
  // Full Service needs an 800us budget for the autopilot alone; a 500us
  // frame cannot hold it.
  const auto findings = check_schedulability(spec, 500);
  EXPECT_FALSE(all_schedulable(findings));
  EXPECT_THROW((void)build_schedule(spec, avionics::kFullService, 500),
               Error);
}

TEST(Schedulability, FindingsCarryLoads) {
  const core::ReconfigSpec spec = avionics::make_uav_spec();
  for (const ScheduleFinding& f : check_schedulability(spec, 20'000)) {
    EXPECT_GT(f.load, 0);
    EXPECT_EQ(f.frame_length, 20'000);
    EXPECT_EQ(f.feasible, f.load <= f.frame_length);
  }
}

TEST(Schedulability, BuiltScheduleGivesEachPartitionOneWindowOnItsHost) {
  // A frame loop walking the table relies on both: every partition runs
  // once per frame, and on the processor its application is placed on.
  const core::ReconfigSpec spec = avionics::make_uav_spec();
  for (const ConfigId config :
       {avionics::kFullService, avionics::kReducedService,
        avionics::kMinimalService}) {
    const BuiltSchedule built = build_schedule(spec, config, 20'000);
    ASSERT_FALSE(built.partitions.empty());
    for (const auto& [app, partition] : built.partitions) {
      std::size_t windows = 0;
      for (const rtos::Window& w : built.table.windows()) {
        if (w.partition != partition) continue;
        ++windows;
        EXPECT_EQ(w.processor, *spec.config(config).host_of(app))
            << "config " << config.value() << ", app " << app.value();
      }
      EXPECT_EQ(windows, 1u)
          << "config " << config.value() << ", app " << app.value();
    }
  }
}

TEST(Schedulability, SyntheticChainConfigsFit) {
  support::ChainSpecParams params;
  params.apps = 4;
  const core::ReconfigSpec spec = support::make_chain_spec(params);
  EXPECT_TRUE(all_schedulable(check_schedulability(spec, 10'000)));
  for (const auto& [id, cfg] : spec.configs()) {
    EXPECT_NO_THROW((void)build_schedule(spec, id, 10'000));
  }
}

}  // namespace
}  // namespace arfs::analysis
