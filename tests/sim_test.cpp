#include <gtest/gtest.h>

#include "arfs/common/check.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/sim/clock.hpp"
#include "arfs/sim/fault_plan.hpp"

namespace arfs::sim {
namespace {

TEST(VirtualClock, StartsAtFrameZero) {
  VirtualClock clock(10'000);
  EXPECT_EQ(clock.current_frame(), 0u);
  EXPECT_EQ(clock.now(), 0);
}

TEST(VirtualClock, AdvanceFrame) {
  VirtualClock clock(10'000);
  clock.advance_frame();
  EXPECT_EQ(clock.current_frame(), 1u);
  EXPECT_EQ(clock.now(), 10'000);
}

TEST(VirtualClock, FrameStartAndFrameOf) {
  VirtualClock clock(10'000);
  EXPECT_EQ(clock.frame_start(3), 30'000);
  EXPECT_EQ(clock.frame_of(0), 0u);
  EXPECT_EQ(clock.frame_of(9'999), 0u);
  EXPECT_EQ(clock.frame_of(10'000), 1u);
}

TEST(VirtualClock, AdvanceWithinFrame) {
  VirtualClock clock(10'000);
  clock.advance_within_frame(5'000);
  EXPECT_EQ(clock.now(), 5'000);
  EXPECT_EQ(clock.current_frame(), 0u);
}

TEST(VirtualClock, AdvanceWithinFrameCannotCrossBoundary) {
  VirtualClock clock(10'000);
  EXPECT_THROW(clock.advance_within_frame(10'000), ContractViolation);
}

TEST(VirtualClock, RejectsNonPositiveFrame) {
  EXPECT_THROW(VirtualClock(0), ContractViolation);
}

TEST(FaultPlan, KeepsTimeOrderRegardlessOfInsertion) {
  FaultPlan plan;
  plan.fail_processor(300, ProcessorId{1});
  plan.fail_processor(100, ProcessorId{2});
  plan.fail_processor(200, ProcessorId{3});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].processor, ProcessorId{2});
  EXPECT_EQ(plan.events()[1].processor, ProcessorId{3});
  EXPECT_EQ(plan.events()[2].processor, ProcessorId{1});
}

TEST(FaultPlan, ConsumeUntilIsIncremental) {
  FaultPlan plan;
  plan.fail_processor(100, ProcessorId{1});
  plan.change_environment(200, FactorId{1}, 5);
  plan.software_fault(300, AppId{1});

  EXPECT_EQ(plan.consume_until(150).size(), 1u);
  EXPECT_EQ(plan.consume_until(150).size(), 0u);  // already consumed
  EXPECT_EQ(plan.consume_until(400).size(), 2u);
}

TEST(FaultPlan, RewindReplays) {
  FaultPlan plan;
  plan.fail_processor(100, ProcessorId{1});
  EXPECT_EQ(plan.consume_until(1000).size(), 1u);
  plan.rewind();
  EXPECT_EQ(plan.consume_until(1000).size(), 1u);
}

TEST(FaultPlan, BuilderFieldsRoundTrip) {
  FaultPlan plan;
  plan.change_environment(50, FactorId{7}, -3, "note");
  const FaultEvent& e = plan.events()[0];
  EXPECT_EQ(e.kind, FaultKind::kEnvironmentChange);
  EXPECT_EQ(e.factor, FactorId{7});
  EXPECT_EQ(e.new_value, -3);
  EXPECT_EQ(e.note, "note");
}

TEST(FaultPlan, RejectsNegativeTime) {
  FaultPlan plan;
  EXPECT_THROW(plan.fail_processor(-1, ProcessorId{1}), ContractViolation);
}

TEST(Campaign, GeneratesRequestedCounts) {
  CampaignParams params;
  params.horizon = 1'000'000;
  params.processor_failures = 3;
  params.environment_changes = 4;
  params.timing_overruns = 2;
  params.software_faults = 1;
  params.processors = {ProcessorId{1}, ProcessorId{2}};
  params.factors = {FactorId{1}};
  params.factor_max = 3;
  params.apps = {AppId{1}, AppId{2}};

  Rng rng(7);
  const FaultPlan plan = generate_campaign(params, rng);
  EXPECT_EQ(plan.size(), 10u);

  std::size_t env_changes = 0;
  for (const FaultEvent& e : plan.events()) {
    EXPECT_GE(e.when, 0);
    EXPECT_LT(e.when, params.horizon);
    if (e.kind == FaultKind::kEnvironmentChange) {
      ++env_changes;
      EXPECT_GE(e.new_value, params.factor_min);
      EXPECT_LE(e.new_value, params.factor_max);
    }
  }
  EXPECT_EQ(env_changes, 4u);
}

TEST(Campaign, DeterministicFromSeed) {
  CampaignParams params;
  params.horizon = 1000;
  params.environment_changes = 5;
  params.factors = {FactorId{1}};
  Rng a(42);
  Rng b(42);
  const FaultPlan pa = generate_campaign(params, a);
  const FaultPlan pb = generate_campaign(params, b);
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa.events()[i].when, pb.events()[i].when);
    EXPECT_EQ(pa.events()[i].new_value, pb.events()[i].new_value);
  }
}

TEST(Campaign, RequiresCandidatesWhenCountsPositive) {
  CampaignParams params;
  params.horizon = 1000;
  params.processor_failures = 1;  // but no processors listed
  Rng rng(1);
  EXPECT_THROW((void)generate_campaign(params, rng), ContractViolation);
}

TEST(FaultKindNames, AllDistinct) {
  EXPECT_EQ(to_string(FaultKind::kProcessorFailStop), "processor-fail-stop");
  EXPECT_EQ(to_string(FaultKind::kEnvironmentChange), "environment-change");
  EXPECT_NE(to_string(FaultKind::kTimingOverrun),
            to_string(FaultKind::kSoftwareFault));
}

}  // namespace
}  // namespace arfs::sim
