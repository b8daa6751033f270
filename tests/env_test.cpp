#include <gtest/gtest.h>

#include "arfs/common/check.hpp"
#include "arfs/env/electrical.hpp"
#include "arfs/env/environment.hpp"
#include "arfs/env/factor.hpp"

namespace arfs::env {
namespace {

TEST(Environment, DeclareAndGet) {
  Environment e;
  e.declare(FactorId{1}, 5);
  EXPECT_EQ(e.get(FactorId{1}), 5);
  EXPECT_TRUE(e.declared(FactorId{1}));
  EXPECT_FALSE(e.declared(FactorId{2}));
}

TEST(Environment, DoubleDeclareRejected) {
  Environment e;
  e.declare(FactorId{1}, 0);
  EXPECT_THROW(e.declare(FactorId{1}, 0), ContractViolation);
}

TEST(Environment, SetRecordsOnlyRealChanges) {
  Environment e;
  e.declare(FactorId{1}, 0);
  e.set(FactorId{1}, 0, 100);  // no-op
  EXPECT_EQ(e.change_count(), 0u);
  e.set(FactorId{1}, 2, 200);
  EXPECT_EQ(e.change_count(), 1u);
  EXPECT_EQ(e.history().size(), 1u);
}

TEST(Environment, StateAtReconstructsPastStates) {
  Environment e;
  e.declare(FactorId{1}, 0);
  e.declare(FactorId{2}, 10);
  e.set(FactorId{1}, 1, 100);
  e.set(FactorId{2}, 20, 300);

  EXPECT_EQ(e.state_at(50).at(FactorId{1}), 0);
  EXPECT_EQ(e.state_at(50).at(FactorId{2}), 10);
  EXPECT_EQ(e.state_at(100).at(FactorId{1}), 1);
  EXPECT_EQ(e.state_at(200).at(FactorId{2}), 10);
  EXPECT_EQ(e.state_at(300).at(FactorId{2}), 20);
}

TEST(Environment, HistoryMustBeTimeOrdered) {
  Environment e;
  e.declare(FactorId{1}, 0);
  e.set(FactorId{1}, 1, 100);
  EXPECT_THROW(e.set(FactorId{1}, 2, 50), ContractViolation);
}

TEST(Environment, ToStringRendersState) {
  Environment e;
  e.declare(FactorId{1}, 3);
  e.declare(FactorId{2}, 4);
  EXPECT_EQ(to_string(e.state()), "f1=3,f2=4");
}

TEST(FactorRegistry, DeclaresAndInitializes) {
  FactorRegistry reg;
  reg.declare(FactorSpec{FactorId{1}, "a", 0, 3, 1});
  reg.declare(FactorSpec{FactorId{2}, "b", 0, 1, 0});
  Environment e;
  reg.initialize(e);
  EXPECT_EQ(e.get(FactorId{1}), 1);
  EXPECT_EQ(e.get(FactorId{2}), 0);
}

TEST(FactorRegistry, RejectsBadSpecs) {
  FactorRegistry reg;
  EXPECT_THROW(reg.declare(FactorSpec{FactorId{1}, "bad", 2, 1, 1}),
               ContractViolation);  // empty domain
  EXPECT_THROW(reg.declare(FactorSpec{FactorId{1}, "bad", 0, 1, 5}),
               ContractViolation);  // initial out of range
  reg.declare(FactorSpec{FactorId{1}, "ok", 0, 1, 0});
  EXPECT_THROW(reg.declare(FactorSpec{FactorId{1}, "dup", 0, 1, 0}),
               ContractViolation);
}

TEST(FactorRegistry, EnumeratesCartesianProduct) {
  FactorRegistry reg;
  reg.declare(FactorSpec{FactorId{1}, "a", 0, 2, 0});  // 3 values
  reg.declare(FactorSpec{FactorId{2}, "b", 0, 1, 0});  // 2 values
  const auto states = reg.enumerate_states();
  EXPECT_EQ(states.size(), 6u);
  // Every state distinct.
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (std::size_t j = i + 1; j < states.size(); ++j) {
      EXPECT_NE(states[i], states[j]);
    }
  }
}

TEST(FactorRegistry, EnumerationLimitGuardsExplosion) {
  FactorRegistry reg;
  reg.declare(FactorSpec{FactorId{1}, "a", 0, 999, 0});
  reg.declare(FactorSpec{FactorId{2}, "b", 0, 999, 0});
  EXPECT_THROW((void)reg.enumerate_states(1000), ContractViolation);
}

TEST(FactorMonitor, SignalsOnChangeOnly) {
  FactorRegistry reg;
  reg.declare(FactorSpec{FactorId{1}, "a", 0, 3, 0});
  Environment e;
  reg.initialize(e);
  FactorMonitor monitor(reg, FactorId{1});

  EXPECT_FALSE(monitor.sample(e, 0, 0).has_value());
  e.set(FactorId{1}, 2, 100);
  const auto signal = monitor.sample(e, 1, 100);
  ASSERT_TRUE(signal.has_value());
  EXPECT_EQ(signal->old_value, 0);
  EXPECT_EQ(signal->new_value, 2);
  EXPECT_EQ(signal->cycle, 1u);
  // No further signal while the value stays put.
  EXPECT_FALSE(monitor.sample(e, 2, 200).has_value());
}

TEST(FactorMonitor, UndeclaredFactorRejected) {
  FactorRegistry reg;
  EXPECT_THROW(FactorMonitor(reg, FactorId{1}), ContractViolation);
}

TEST(Electrical, PowerStateLadder) {
  ElectricalSystem es(FactorId{1});
  EXPECT_EQ(es.power_state(), PowerState::kFullPower);
  es.fail_alternator(0);
  EXPECT_EQ(es.power_state(), PowerState::kSingleAlternator);
  es.fail_alternator(1);
  EXPECT_EQ(es.power_state(), PowerState::kBatteryOnly);
  es.repair_alternator(0);
  EXPECT_EQ(es.power_state(), PowerState::kSingleAlternator);
}

TEST(Electrical, StepPublishesFactor) {
  FactorRegistry reg;
  ElectricalSystem es(FactorId{1});
  es.declare_factor(reg);
  Environment e;
  reg.initialize(e);

  es.fail_alternator(0);
  es.step(e, 10'000, 100);
  EXPECT_EQ(e.get(FactorId{1}),
            static_cast<std::int64_t>(PowerState::kSingleAlternator));
}

TEST(Electrical, BatteryDrainsToDepletion) {
  ElectricalParams params;
  params.battery_capacity_wh = 1.0;
  params.battery_drain_w = 3600.0;  // 1 Wh/s: depletes in one second
  FactorRegistry reg;
  ElectricalSystem es(FactorId{1}, params);
  es.declare_factor(reg);
  Environment e;
  reg.initialize(e);

  es.fail_alternator(0);
  es.fail_alternator(1);
  es.step(e, 500'000, 0);  // 0.5 s
  EXPECT_EQ(es.power_state(), PowerState::kBatteryOnly);
  es.step(e, 600'000, 600'000);  // past depletion
  EXPECT_EQ(es.power_state(), PowerState::kDepleted);
  EXPECT_DOUBLE_EQ(es.battery_charge_wh(), 0.0);
}

TEST(Electrical, SpareAlternatorRecharges) {
  ElectricalParams params;
  params.battery_capacity_wh = 10.0;
  params.battery_drain_w = 3600.0;
  params.battery_charge_w = 3600.0;
  FactorRegistry reg;
  ElectricalSystem es(FactorId{1}, params);
  es.declare_factor(reg);
  Environment e;
  reg.initialize(e);

  es.fail_alternator(0);
  es.fail_alternator(1);
  es.step(e, 1'000'000, 0);  // drain 1 Wh
  const double drained = es.battery_charge_wh();
  EXPECT_LT(drained, 10.0);

  es.repair_alternator(0);
  es.repair_alternator(1);
  es.step(e, 2'000'000, 2'000'000);  // charge 2 Wh, capped at capacity
  EXPECT_GT(es.battery_charge_wh(), drained);
  EXPECT_LE(es.battery_charge_wh(), 10.0);
}

TEST(Electrical, PowerStateNames) {
  EXPECT_EQ(to_string(PowerState::kFullPower), "full-power");
  EXPECT_EQ(to_string(PowerState::kDepleted), "depleted");
}

}  // namespace
}  // namespace arfs::env
