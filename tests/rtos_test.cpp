#include <gtest/gtest.h>

#include "arfs/common/check.hpp"
#include "arfs/rtos/health.hpp"
#include "arfs/rtos/schedule.hpp"

namespace arfs::rtos {
namespace {

TEST(ScheduleTable, RejectsWindowBeyondFrame) {
  ScheduleTable table(1000);
  EXPECT_THROW(
      table.add_window(Window{PartitionId{1}, ProcessorId{1}, 900, 200}),
      ContractViolation);
}

TEST(ScheduleTable, RejectsOverlapOnSameProcessor) {
  ScheduleTable table(1000);
  table.add_window(Window{PartitionId{1}, ProcessorId{1}, 0, 500});
  EXPECT_THROW(
      table.add_window(Window{PartitionId{2}, ProcessorId{1}, 400, 200}),
      ContractViolation);
}

TEST(ScheduleTable, AllowsOverlapOnDifferentProcessors) {
  ScheduleTable table(1000);
  table.add_window(Window{PartitionId{1}, ProcessorId{1}, 0, 500});
  EXPECT_NO_THROW(
      table.add_window(Window{PartitionId{2}, ProcessorId{2}, 0, 500}));
}

TEST(ScheduleTable, ActivationOrderSortsByOffset) {
  ScheduleTable table(1000);
  table.add_window(Window{PartitionId{2}, ProcessorId{1}, 500, 100});
  table.add_window(Window{PartitionId{1}, ProcessorId{1}, 0, 100});
  const auto order = table.activation_order();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0].partition, PartitionId{1});
  EXPECT_EQ(order[1].partition, PartitionId{2});
}

TEST(ScheduleTable, LoadPerProcessor) {
  ScheduleTable table(1000);
  table.add_window(Window{PartitionId{1}, ProcessorId{1}, 0, 300});
  table.add_window(Window{PartitionId{2}, ProcessorId{1}, 300, 200});
  table.add_window(Window{PartitionId{3}, ProcessorId{2}, 0, 100});
  EXPECT_EQ(table.load_on(ProcessorId{1}), 500);
  EXPECT_EQ(table.load_on(ProcessorId{2}), 100);
  EXPECT_EQ(table.load_on(ProcessorId{3}), 0);
}

TEST(HealthMonitor, OverrunRecordsTheEventAndRaisesOneTimingViolation) {
  HealthMonitor health;
  failstop::DetectorBank bank;
  health.report_overrun(PartitionId{1}, AppId{1}, 3, 30'000, 5000, 1000,
                        bank);
  EXPECT_EQ(health.overrun_count(), 1u);
  ASSERT_EQ(health.events().size(), 1u);
  EXPECT_EQ(health.events()[0].kind, HealthEventKind::kBudgetOverrun);
  EXPECT_EQ(health.events()[0].app, AppId{1});
  EXPECT_EQ(health.events()[0].cycle, 3u);
  const auto signals = bank.drain();
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0].kind, failstop::SignalKind::kTimingViolation);
  EXPECT_EQ(signals[0].app, AppId{1});
  EXPECT_EQ(signals[0].cycle, 3u);
}

TEST(HealthMonitor, AppFaultRecordsItsDetailAndRaisesOneSoftwareFailure) {
  HealthMonitor health;
  failstop::DetectorBank bank;
  health.report_app_fault(PartitionId{1}, AppId{1}, 0, 0, "divide by zero",
                          bank);
  EXPECT_EQ(health.fault_count(), 1u);
  ASSERT_EQ(health.events().size(), 1u);
  EXPECT_EQ(health.events()[0].kind, HealthEventKind::kApplicationFault);
  EXPECT_EQ(health.events()[0].detail, "divide by zero");
  const auto signals = bank.drain();
  ASSERT_EQ(signals.size(), 1u);
  EXPECT_EQ(signals[0].kind, failstop::SignalKind::kSoftwareFailure);
  EXPECT_EQ(signals[0].app, AppId{1});
}

}  // namespace
}  // namespace arfs::rtos
