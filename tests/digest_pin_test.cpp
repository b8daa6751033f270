// Absolute digest pins for whole-system state, and the restores the dense
// per-app tables and interned stable-storage keys must survive.
//
// Every constant below was recorded from the string-keyed, map-based frame
// (before stable-storage keys were interned and the per-app tables became
// dense), except the two journal-shipping pins (the UAV mission's three
// digests and the quorum chain's), re-recorded when the quorum members
// stopped journaling into standby engines of their own. A member's replica
// store is the same with or without that journal, so those digests moved
// only by the standby-engine term the replica hash dropped: the tree
// before that change, with just that term deleted from its replica hash
// and the engines still attached and journaling, gives the same four
// values. The frame may be restructured freely as long as each of these
// numbers still comes out bit for bit:
//  * the 32-app chain fleet (the perfbench fleet_wide shape, shortened),
//    pooled and construct-per-sample;
//  * System::digest() of a durable, journal-shipping §7 UAV mission at
//    three points in the mission;
//  * a three-member quorum chain through a processor fail and repair;
//  * a 2-app chain sweep through run_mission_sweep;
//  * a spec that declares its apps out of AppId order, under both phase
//    barriers — the digest, the trace rows and the CSV export must walk
//    AppId order whatever order the frame loop uses;
//  * every processor's store fingerprints, frame by frame, through a UAV
//    mission whose FCS region relocates four times (recorded before
//    regions remembered their KeyIds);
//  * the CSV and JSON exports of a 64-frame, 32-app campaign (recorded
//    before the trace became flat).
//
// The DigestView tests hold the live digest (System::digest()) equal to
// the checkpoint digest at every frame of volatile, durable and quorum
// systems. The RegionMemo and FlatTrace tests hold writes and trace rows
// after a restore equal to a run that never rewound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "arfs/avionics/autopilot.hpp"
#include "arfs/avionics/fcs.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/sweep.hpp"
#include "arfs/support/synthetic.hpp"
#include "arfs/trace/export.hpp"

namespace arfs {
namespace {

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::uint64_t fnv_bytes(const std::string& s) {
  std::uint64_t h = kFnvBasis;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

#define EXPECT_PIN(actual, pinned) \
  EXPECT_EQ(hex(actual), hex(pinned)) << #actual

// --- the 32-app chain fleet ---

constexpr std::uint64_t kChainFleetDigest = 0xe9676025bad10493;

support::MissionFactory chain_factory(
    std::shared_ptr<core::ReconfigSpec> spec, core::SystemOptions options) {
  return [spec, options] {
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

TEST(DigestPin, ChainFleetOf32AppsPooledAndConstructed) {
  support::ChainSpecParams params;
  params.configs = 4;
  params.apps = 32;
  params.with_recovery_edges = true;
  auto spec =
      std::make_shared<core::ReconfigSpec>(support::make_chain_spec(params));
  const support::MissionFactory factory = chain_factory(spec, {});

  support::EnvPlanParams plan_params;
  plan_params.factors = spec->factors().factors();
  plan_params.changes = 4;
  plan_params.first_frame = 8;
  plan_params.frames = 64;
  const support::PlanFactory plans =
      support::make_env_plan_factory(std::move(plan_params));

  support::FleetMissionOptions options;
  options.samples = 16;
  options.frames = 64;
  options.warmup_frames = 8;
  options.base_seed = 1;
  for (const bool pooled : {true, false}) {
    options.pool_systems = pooled;
    sim::FleetRunner fleet(sim::FleetOptions{2, 0, 4, nullptr});
    const support::FleetMissionReport report =
        support::run_fleet_missions(factory, plans, options, fleet);
    EXPECT_PIN(report.digest, kChainFleetDigest) << " pooled=" << pooled;
    EXPECT_GT(report.reconfigurations, 0u);
  }
}

// --- a durable, journal-shipping UAV mission ---

constexpr std::uint64_t kUavDigestAt0 = 0x0b8529d307aa41f8;
constexpr std::uint64_t kUavDigestAt17 = 0x5a3f85b143f26058;
constexpr std::uint64_t kUavDigestAt64 = 0x98f7d99193291913;

TEST(DigestPin, DurableShippingUavMission) {
  avionics::UavSpecOptions spec_options;
  spec_options.dwell_frames = 10;
  const core::ReconfigSpec spec = avionics::make_uav_spec(spec_options);
  avionics::UavPlant plant(42);

  core::SystemOptions options;
  options.frame_length = 20'000;
  options.durable_storage = true;
  options.journal_shipping = true;
  options.durability.snapshot_every_epochs = 16;
  options.durability.sync =
      storage::durable::SyncPolicy::hybrid(4096, 8);
  core::System system(spec, options);
  system.add_app(std::make_unique<avionics::AutopilotApp>(plant));
  system.add_app(std::make_unique<avionics::FcsApp>(plant));

  support::MissionProfile mission(options.frame_length);
  mission.at(10, avionics::kPowerFactor, 1)
      .at(25, avionics::kPowerFactor, 2)
      .fail(30, avionics::kComputer1)
      .repair(36, avionics::kComputer1)
      .at(40, avionics::kPowerFactor, 0);
  system.set_fault_plan(mission.build());

  EXPECT_PIN(system.digest(), kUavDigestAt0);
  system.run(17);
  EXPECT_PIN(system.digest(), kUavDigestAt17);
  system.run(64 - 17);
  EXPECT_PIN(system.digest(), kUavDigestAt64);
  EXPECT_GE(system.scram().stats().reconfigs_completed, 2u);
  EXPECT_EQ(system.digest(), system.checkpoint().digest());
}

// --- a three-member quorum cohort through a fail and a repair ---

constexpr std::uint64_t kQuorumChainDigest = 0x89190a2516abd9ce;

TEST(DigestPin, QuorumChainThroughProcessorFailAndRepair) {
  auto spec =
      std::make_shared<core::ReconfigSpec>(support::make_chain_spec({}));
  core::SystemOptions options;
  options.durable_storage = true;
  options.journal_shipping = true;
  options.quorum_replicas = 3;
  options.durability.snapshot_every_epochs = 7;
  support::CrashMission m = chain_factory(spec, options)();
  core::System& system = *m.system;

  const ProcessorId victim = support::synthetic_processor(0);
  support::MissionProfile mission(10'000);
  mission.at(2, support::kChainSeverityFactor, 1)
      .fail(5, victim)
      .at(9, support::kChainSeverityFactor, 2)
      .repair(14, victim)
      .at(18, support::kChainSeverityFactor, 0);
  sim::FaultPlan plan = mission.build();
  plan.quorum_member_fail(7 * 10'000, support::synthetic_processor(1), 2);
  plan.quorum_member_repair(12 * 10'000, support::synthetic_processor(1), 2);
  system.set_fault_plan(std::move(plan));
  system.run(32);

  EXPECT_PIN(system.digest(), kQuorumChainDigest);
  EXPECT_EQ(system.stats().quorum_member_failures, 1u);
  EXPECT_EQ(system.stats().quorum_member_repairs, 1u);
  EXPECT_GE(system.stats().true_detections, 1u);
}

// --- a 2-app chain through run_mission_sweep ---

constexpr std::uint64_t kTwoAppSweepDigest = 0x8f2e0e1d4570d05e;

TEST(DigestPin, TwoAppChainMissionSweep) {
  auto spec =
      std::make_shared<core::ReconfigSpec>(support::make_chain_spec({}));
  const support::MissionFactory factory = chain_factory(spec, {});
  support::EnvPlanParams plan_params;
  plan_params.factors = spec->factors().factors();
  plan_params.changes = 3;
  plan_params.frames = 24;
  const support::PlanFactory plans =
      support::make_env_plan_factory(std::move(plan_params));

  const std::function<std::uint64_t(const support::MissionJob&)> fly =
      [&](const support::MissionJob& job) {
        support::CrashMission mission = factory();
        mission.system->set_fault_plan(plans(job.seed));
        mission.system->run(24);
        return mission.system->digest();
      };
  sim::FleetRunner fleet(sim::FleetOptions{2, 0, 2, nullptr});
  const std::vector<std::uint64_t> digests =
      support::run_mission_sweep<std::uint64_t>(6, /*base_seed=*/5, fly,
                                                fleet);
  std::uint64_t h = kFnvBasis;
  for (const std::uint64_t d : digests) h = fnv_mix(h, d);
  EXPECT_PIN(h, kTwoAppSweepDigest);
}

// --- apps declared out of AppId order ---

constexpr FactorId kLevel{9};
constexpr AppId kDeclared[] = {AppId{30}, AppId{4}, AppId{17}};

SpecId spec_of(AppId app, std::uint32_t k) {
  return SpecId{app.value() * 10 + k};
}

core::ReconfigSpec out_of_order_spec() {
  core::ReconfigSpec spec;
  for (const AppId app : kDeclared) {
    core::AppDecl decl;
    decl.id = app;
    decl.name = "app-" + std::to_string(app.value());
    decl.specs = {
        core::FunctionalSpec{spec_of(app, 0), "full", {0.3, 32.0, 5.0}, 100,
                             200},
        core::FunctionalSpec{spec_of(app, 1), "reduced", {0.1, 8.0, 2.0}, 50,
                             150},
    };
    spec.declare_app(std::move(decl));
  }
  spec.declare_factor(env::FactorSpec{kLevel, "level", 0, 2, 0});

  const ProcessorId p1{1}, p2{2}, p3{3};
  core::Configuration full;
  full.id = ConfigId{1};
  full.name = "full";
  full.assignment = {{AppId{30}, spec_of(AppId{30}, 0)},
                     {AppId{4}, spec_of(AppId{4}, 0)},
                     {AppId{17}, spec_of(AppId{17}, 0)}};
  full.placement = {{AppId{30}, p1}, {AppId{4}, p2}, {AppId{17}, p3}};
  spec.declare_config(std::move(full));

  core::Configuration reduced;
  reduced.id = ConfigId{2};
  reduced.name = "reduced";
  reduced.assignment = {{AppId{30}, spec_of(AppId{30}, 1)},
                        {AppId{4}, spec_of(AppId{4}, 1)}};
  reduced.placement = {{AppId{30}, p2}, {AppId{4}, p1}};
  spec.declare_config(std::move(reduced));

  core::Configuration safe;
  safe.id = ConfigId{3};
  safe.name = "safe";
  safe.assignment = {{AppId{4}, spec_of(AppId{4}, 1)}};
  safe.placement = {{AppId{4}, p3}};
  safe.safe = true;
  spec.declare_config(std::move(safe));

  for (std::uint32_t from = 1; from <= 3; ++from) {
    for (std::uint32_t to = 1; to <= 3; ++to) {
      spec.set_transition_bound(ConfigId{from}, ConfigId{to}, 12);
    }
  }
  spec.set_choose([](ConfigId, const env::EnvState& e) {
    const auto it = e.find(kLevel);
    const std::int64_t level = it == e.end() ? 0 : it->second;
    return ConfigId{static_cast<std::uint32_t>(level + 1)};
  });
  spec.add_dependency(core::Dependency{AppId{4}, AppId{30},
                                       core::DepPhase::kInitialize, {}});
  spec.add_dependency(
      core::Dependency{AppId{17}, AppId{4}, core::DepPhase::kHalt, {}});
  spec.set_initial_config(ConfigId{1});
  spec.validate();
  return spec;
}

struct OutOfOrderPins {
  std::uint64_t at0, at6, at15, at40, csv;
};

constexpr OutOfOrderPins kGlobalPins = {
    0x5ce03cb20ed846a9, 0x929aad0660aa3e02, 0x04716226523e9e84,
    0x7830b6ca18f0f760, 0x976498a8342c1dc0};
constexpr OutOfOrderPins kRelaxedPins = {
    0x5ce03cb20ed846a9, 0xec2139fd0f856802, 0x57807a1bb9e463e2,
    0x2e404ccf270d21ad, 0x90e0d3eabafab53e};

void run_out_of_order(core::ScramOptions scram, const OutOfOrderPins& pins) {
  const core::ReconfigSpec spec = out_of_order_spec();
  core::SystemOptions options;
  options.scram = scram;
  core::System system(spec, options);
  for (const AppId app : kDeclared) {
    system.add_app(std::make_unique<support::SimpleApp>(
        app, "app-" + std::to_string(app.value())));
  }
  sim::FaultPlan plan;
  plan.timing_overrun(2 * 10'000, AppId{17});
  plan.change_environment(3 * 10'000, kLevel, 1);
  plan.software_fault(5 * 10'000, AppId{30});
  plan.fail_processor(9 * 10'000, ProcessorId{3});
  plan.change_environment(12 * 10'000, kLevel, 2);
  plan.timing_overrun(13 * 10'000, AppId{4});
  plan.repair_processor(20 * 10'000, ProcessorId{3});
  plan.change_environment(24 * 10'000, kLevel, 0);
  plan.change_environment(25 * 10'000, kLevel, 1);
  system.set_fault_plan(std::move(plan));

  EXPECT_PIN(system.digest(), pins.at0);
  system.run(6);
  EXPECT_PIN(system.digest(), pins.at6);
  system.run(9);
  EXPECT_PIN(system.digest(), pins.at15);
  system.run(25);
  EXPECT_PIN(system.digest(), pins.at40);
  EXPECT_GE(system.scram().stats().reconfigs_completed, 2u);

  std::ostringstream csv;
  trace::write_csv(system.trace(), csv);
  EXPECT_PIN(fnv_bytes(csv.str()), pins.csv);
  // Rows walk ascending AppId order, not declaration order.
  const trace::SysStateView row = system.trace().at(0);
  std::vector<AppId> order;
  for (const auto& [app, snap] : row.apps) order.push_back(app);
  EXPECT_EQ(order, (std::vector<AppId>{AppId{4}, AppId{17}, AppId{30}}));
}

TEST(DigestPin, OutOfOrderDeclarationGlobalBarrier) {
  run_out_of_order(core::ScramOptions{}, kGlobalPins);
}

TEST(DigestPin, OutOfOrderDeclarationRelaxedImmediate) {
  core::ScramOptions scram;
  scram.policy = core::ReconfigPolicy::kImmediate;
  scram.barrier = core::PhaseBarrier::kRelaxed;
  run_out_of_order(scram, kRelaxedPins);
}

// A fault event naming an app the spec does not declare: the flag can never
// fire, but it is part of the digested state.
constexpr std::uint64_t kUndeclaredAppDigest = 0x9b5cdab90a18af0c;

TEST(DigestPin, FaultEventsForAnUndeclaredApp) {
  const core::ReconfigSpec spec = out_of_order_spec();
  core::System system(spec);
  for (const AppId app : kDeclared) {
    system.add_app(std::make_unique<support::SimpleApp>(
        app, "app-" + std::to_string(app.value())));
  }
  sim::FaultPlan plan;
  plan.timing_overrun(1 * 10'000, AppId{99});
  plan.software_fault(2 * 10'000, AppId{2});
  plan.software_fault(3 * 10'000, AppId{17});
  system.set_fault_plan(std::move(plan));
  system.run(6);
  EXPECT_PIN(system.digest(), kUndeclaredAppDigest);
  EXPECT_EQ(system.digest(), system.checkpoint().digest());
}

// --- the live digest equals the checkpoint digest everywhere ---
//
// System::digest() reads the running system in place; SystemCheckpoint::
// digest() reads a frozen image. Both run one hash body, and these tests
// hold them equal before the first frame, after every frame and after a
// restore, on every kind of system the digest walks.

/// Checks digest() == checkpoint().digest() before the first frame, after
/// each of `frames` frames, right after restoring the checkpoint taken
/// halfway, and after each frame replayed from there.
void expect_views_agree(core::System& system, Cycle frames) {
  EXPECT_EQ(hex(system.digest()), hex(system.checkpoint().digest()))
      << "before the first frame";
  std::optional<core::SystemCheckpoint> halfway;
  for (Cycle f = 1; f <= frames; ++f) {
    system.run(1);
    core::SystemCheckpoint cp = system.checkpoint();
    ASSERT_EQ(hex(system.digest()), hex(cp.digest())) << "frame " << f;
    if (f == frames / 2) halfway = std::move(cp);
  }
  system.restore(*halfway);
  EXPECT_EQ(hex(system.digest()), hex(halfway->digest())) << "after restore";
  for (Cycle f = frames / 2 + 1; f <= frames; ++f) {
    system.run(1);
    ASSERT_EQ(hex(system.digest()), hex(system.checkpoint().digest()))
        << "replayed frame " << f;
  }
}

core::ScramOptions relaxed_immediate() {
  core::ScramOptions scram;
  scram.policy = core::ReconfigPolicy::kImmediate;
  scram.barrier = core::PhaseBarrier::kRelaxed;
  return scram;
}

TEST(DigestView, VolatileChainUnderBothBarriersWithEnvCampaigns) {
  for (const std::size_t apps : {2u, 32u}) {
    for (const core::ScramOptions& scram :
         {core::ScramOptions{}, relaxed_immediate()}) {
      support::ChainSpecParams params;
      params.apps = apps;
      params.with_recovery_edges = true;
      auto spec = std::make_shared<core::ReconfigSpec>(
          support::make_chain_spec(params));
      core::SystemOptions options;
      options.scram = scram;
      support::CrashMission m = chain_factory(spec, options)();
      support::EnvPlanParams plan_params;
      plan_params.factors = spec->factors().factors();
      plan_params.changes = 6;
      plan_params.first_frame = 2;
      plan_params.frames = 36;
      m.system->set_fault_plan(
          support::make_env_plan_factory(std::move(plan_params))(7));
      SCOPED_TRACE(std::to_string(apps) + " apps, barrier " +
                   std::to_string(static_cast<int>(scram.barrier)));
      expect_views_agree(*m.system, 40);
      EXPECT_GE(m.system->scram().stats().reconfigs_started, 1u);
    }
  }
}

TEST(DigestView, OutOfOrderSpecWithStrayForcedFlags) {
  const core::ReconfigSpec spec = out_of_order_spec();
  for (const core::ScramOptions& scram :
       {core::ScramOptions{}, relaxed_immediate()}) {
    core::SystemOptions options;
    options.scram = scram;
    core::System system(spec, options);
    // Apps not added yet have no part in either digest.
    for (const AppId app : kDeclared) {
      EXPECT_EQ(hex(system.digest()), hex(system.checkpoint().digest()));
      system.add_app(std::make_unique<support::SimpleApp>(
          app, "app-" + std::to_string(app.value())));
    }
    sim::FaultPlan plan;
    plan.timing_overrun(1 * 10'000, AppId{99});  // undeclared: stray flags
    plan.software_fault(2 * 10'000, AppId{2});
    plan.timing_overrun(2 * 10'000, AppId{17});
    plan.change_environment(3 * 10'000, kLevel, 1);
    plan.software_fault(5 * 10'000, AppId{30});
    plan.software_fault(6 * 10'000, AppId{50});
    plan.fail_processor(9 * 10'000, ProcessorId{3});
    plan.change_environment(12 * 10'000, kLevel, 2);
    plan.repair_processor(20 * 10'000, ProcessorId{3});
    plan.change_environment(24 * 10'000, kLevel, 0);
    system.set_fault_plan(std::move(plan));
    expect_views_agree(system, 32);
    // The image holds the flags as the frame loop does: one per declared
    // app (AppId 4, the lowest, looked up and clear; 17's overrun and 30's
    // fault consumed), and the stray ids (every one raised) sorted.
    const core::SystemCheckpoint cp = system.checkpoint();
    const auto flag = [&spec](const std::vector<core::Forced>& flags,
                              AppId app) {
      return flags[*spec.app_index(app)];
    };
    EXPECT_EQ(flag(cp.state.forced_overrun, AppId{4}), core::Forced::kClear);
    EXPECT_EQ(flag(cp.state.forced_overrun, AppId{17}), core::Forced::kClear);
    EXPECT_EQ(flag(cp.state.forced_fault, AppId{30}), core::Forced::kClear);
    EXPECT_EQ(cp.state.stray_overrun, std::vector<AppId>{AppId{99}});
    EXPECT_EQ(cp.state.stray_fault, (std::vector<AppId>{AppId{2}, AppId{50}}));
    EXPECT_GE(system.scram().stats().reconfigs_completed, 2u);
  }
}

TEST(DigestView, EveryStateMemberMovesTheDigestUnlessListedAsNotHashed) {
  // A system mid-reconfiguration under the relaxed barrier (stage table
  // tracked), with stray and declared forced flags set.
  const core::ReconfigSpec spec = out_of_order_spec();
  core::SystemOptions options;
  options.scram = relaxed_immediate();
  core::System system(spec, options);
  for (const AppId app : kDeclared) {
    system.add_app(std::make_unique<support::SimpleApp>(
        app, "app-" + std::to_string(app.value())));
  }
  sim::FaultPlan plan;
  plan.timing_overrun(1 * 10'000, AppId{99});
  plan.software_fault(2 * 10'000, AppId{2});
  plan.change_environment(3 * 10'000, kLevel, 1);
  system.set_fault_plan(std::move(plan));
  system.run(5);
  ASSERT_TRUE(system.scram().reconfiguring());

  core::SystemCheckpoint cp = system.checkpoint();
  const std::uint64_t base = cp.digest();
  ASSERT_EQ(base, system.digest());
  const core::SystemState state_before = cp.state;
  const core::ScramState scram_before = cp.scram;
  // Exactly one binding per member: a new member fails to compile here
  // until this test changes it.
  auto& [clock, environment, monitors, activity, bank, health, region_host,
         forced_overrun, forced_fault, stray_overrun, stray_fault,
         fault_plan, router, deadline_alarm_raised, noise_rng, trace, stats,
         started] = cp.state;
  auto& [current, target, phase, done, stage, halt_done, prepare_done,
         init_done, pending_trigger, lossy_pending, active_start,
         dwell_until, scram_stats] = cp.scram;
  // After each change: the digest moved iff the member is hashed, and the
  // image is put back.
  std::size_t checked = 0;
  const auto expect = [&](const char* member, bool hashed) {
    EXPECT_EQ(cp.digest() != base, hashed) << member;
    cp.state = state_before;
    cp.scram = scram_before;
    ASSERT_EQ(cp.digest(), base) << member;
    ++checked;
  };
  const auto flip = [](core::Forced& flag) {
    flag = flag == core::Forced::kRaised ? core::Forced::kClear
                                         : core::Forced::kRaised;
  };
  const AppId some_app = spec.apps().front().id;

  clock.advance_frame();
  expect("clock", true);
  environment.set(kLevel, environment.get(kLevel) + 1, clock.now());
  expect("environment", true);
  ASSERT_FALSE(monitors.empty());
  monitors.pop_back();
  expect("monitors", false);
  activity = failstop::ActivityMonitor(activity.miss_threshold() + 1);
  expect("activity", false);
  bank.raise(failstop::FailureSignal{});
  expect("bank", true);
  failstop::DetectorBank scratch;
  health.report_app_fault(PartitionId{1}, some_app, 0, 0, "x", scratch);
  expect("health", true);
  region_host.front() = ProcessorId{region_host.front().value() + 1};
  expect("region_host", true);
  flip(forced_overrun.front());
  expect("forced_overrun", true);
  flip(forced_fault.front());
  expect("forced_fault", true);
  stray_overrun.push_back(AppId{1000});
  expect("stray_overrun", true);
  stray_fault.push_back(AppId{1000});
  expect("stray_fault", true);
  ASSERT_GT(fault_plan.consumed(), 0u);
  fault_plan.rewind();
  expect("fault_plan", true);
  router.endpoint(some_app).send(some_app, "t", std::int64_t{1});
  router.exchange(0, [](AppId) { return true; });
  expect("router", true);
  deadline_alarm_raised = !deadline_alarm_raised;
  expect("deadline_alarm_raised", true);
  (void)noise_rng.next_u64();
  expect("noise_rng", true);
  (void)trace.append_frame(trace.size(), clock.now(), current,
                           environment.state(), 0);
  expect("trace", true);
  ++stats.frames_run;
  expect("stats", true);
  started = !started;
  expect("started", true);

  current = ConfigId{current.value() + 100};
  expect("current", true);
  target = ConfigId{target.value() + 100};
  expect("target", true);
  phase = phase == core::ScramState::Phase::kIdle
              ? core::ScramState::Phase::kHalt
              : core::ScramState::Phase::kIdle;
  expect("phase", true);
  done.front() = !done.front();
  expect("done", true);
  ASSERT_FALSE(stage.empty());
  stage.clear();
  expect("stage", true);
  halt_done.front() = !halt_done.front();
  expect("halt_done", true);
  prepare_done.front() = !prepare_done.front();
  expect("prepare_done", true);
  init_done.front() = !init_done.front();
  expect("init_done", true);
  pending_trigger = !pending_trigger;
  expect("pending_trigger", true);
  lossy_pending = !lossy_pending;
  expect("lossy_pending", true);
  active_start = active_start.value_or(0) + 1;
  expect("active_start", true);
  ++dwell_until;
  expect("dwell_until", true);
  ++scram_stats.triggers_received;
  expect("scram stats", true);

  EXPECT_EQ(checked, 31u);
}

TEST(DigestView, ProcessorFailsAndIsRepaired) {
  auto spec =
      std::make_shared<core::ReconfigSpec>(support::make_chain_spec({}));
  support::CrashMission m = chain_factory(spec, {})();
  support::MissionProfile mission(10'000);
  mission.fail(4, support::synthetic_processor(0))
      .repair(12, support::synthetic_processor(0))
      .at(16, support::kChainSeverityFactor, 0);
  m.system->set_fault_plan(mission.build());
  expect_views_agree(*m.system, 24);
  EXPECT_GE(m.system->stats().true_detections, 1u);
  EXPECT_TRUE(m.system->processors()
                  .processor(support::synthetic_processor(0))
                  .running());
}

TEST(DigestView, DurableUavUnderEverySyncPolicy) {
  using storage::durable::SyncPolicy;
  avionics::UavSpecOptions spec_options;
  spec_options.dwell_frames = 10;
  const core::ReconfigSpec spec = avionics::make_uav_spec(spec_options);
  for (const SyncPolicy& policy :
       {SyncPolicy::every_commit(), SyncPolicy::bytes(512),
        SyncPolicy::frames(4), SyncPolicy::hybrid(4096, 8),
        SyncPolicy::adaptive()}) {
    avionics::UavPlant plant(42);
    core::SystemOptions options;
    options.frame_length = 20'000;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs = 16;
    options.durability.sync = policy;
    core::System system(spec, options);
    system.add_app(std::make_unique<avionics::AutopilotApp>(plant));
    system.add_app(std::make_unique<avionics::FcsApp>(plant));
    support::MissionProfile mission(options.frame_length);
    mission.at(10, avionics::kPowerFactor, 1)
        .at(25, avionics::kPowerFactor, 2)
        .fail(30, avionics::kComputer1)
        .repair(36, avionics::kComputer1)
        .at(40, avionics::kPowerFactor, 0);
    system.set_fault_plan(mission.build());
    SCOPED_TRACE(storage::durable::to_string(policy.mode));
    expect_views_agree(system, 48);
    EXPECT_GE(system.processors()
                  .processor(avionics::kComputer2)
                  .durability()
                  ->stats()
                  .snapshots_taken,
              1u);
  }
}

TEST(DigestView, QuorumShippingThroughMemberFailRepairAndReseed) {
  auto spec =
      std::make_shared<core::ReconfigSpec>(support::make_chain_spec({}));
  for (const std::uint32_t members : {1u, 3u, 5u}) {
    core::SystemOptions options;
    options.durable_storage = true;
    options.journal_shipping = true;
    options.quorum_replicas = members;
    options.ship_slot_bytes = 64;  // batches split records: partial tails
    options.durability.snapshot_every_epochs = 7;
    options.durability.sync = storage::durable::SyncPolicy::bytes(512);
    support::CrashMission m = chain_factory(spec, options)();
    core::System& system = *m.system;

    const ProcessorId p0 = support::synthetic_processor(0);
    const ProcessorId p1 = support::synthetic_processor(1);
    support::MissionProfile mission(10'000);
    mission.fail(5, p0)  // before its first sync: a lossy recovery, a reseed
        .repair(12, p0)
        .at(15, support::kChainSeverityFactor, 1)
        .at(20, support::kChainSeverityFactor, 0);
    sim::FaultPlan plan = mission.build();
    plan.quorum_member_fail(7 * 10'000, p1, members - 1);
    plan.quorum_member_repair(10 * 10'000, p1, members - 1);
    system.set_fault_plan(std::move(plan));
    SCOPED_TRACE(std::to_string(members) + " members");
    expect_views_agree(system, 24);
    EXPECT_GE(system.stats().ship_reseeds, 1u);
    EXPECT_GE(system.stats().quorum_member_failures, 1u);
    EXPECT_GE(system.stats().quorum_member_repairs, 1u);
  }
}

// --- restores that dense tables and interned keys must survive ---

TEST(RestoreHazards, KeyIdsSurviveAssigningAnotherStore) {
  storage::StableStorage live;
  const storage::KeyId a = live.intern("a");
  live.write(a, std::int64_t{1});
  live.commit(1);
  const storage::StableStorage snapshot = live;  // table {a}
  const storage::KeyId b = live.intern("b");

  // A foreign table (other names, other id order): assignment keeps this
  // store's ids and interns the names it lacks.
  storage::StableStorage other;
  other.write("z", std::int64_t{26});
  other.write("b", std::int64_t{2});
  other.commit(3);
  other.write("a", std::int64_t{11});  // staged, not committed
  live = other;
  EXPECT_EQ(live.key_name(a), "a");
  EXPECT_EQ(live.key_name(b), "b");
  EXPECT_EQ(live.fingerprint(), other.fingerprint());
  EXPECT_EQ(std::get<std::int64_t>(live.read(b).value()), 2);
  EXPECT_EQ(std::get<std::int64_t>(live.read_own(a).value()), 11);
  ASSERT_EQ(live.pending().size(), 1u);
  EXPECT_EQ(live.pending()[0], a);

  // A checkpoint over a prefix of this table: ids coincide, later names
  // stay interned but hold nothing.
  live = snapshot;
  EXPECT_EQ(live.fingerprint(), snapshot.fingerprint());
  EXPECT_EQ(live.find_key("b"), b);
  EXPECT_TRUE(live.find_key("z").has_value());
  EXPECT_FALSE(live.contains(b));
  EXPECT_TRUE(live.pending().empty());
  EXPECT_EQ(live.key_name(a), "a");
}

/// Sends its frame counter to the next app each frame and keeps the last
/// counter it received, so misrouted mail shows in the digest.
class RelayApp final : public core::ReconfigurableApp {
 public:
  RelayApp(AppId id, AppId next) : ReconfigurableApp(id, "relay"), next_(next) {}

 protected:
  StepResult do_work(const Ctx& ctx) override {
    if (ctx.mail != nullptr) {
      if (const core::AppMessage* m = ctx.mail->latest("n")) {
        received_ = std::get<std::int64_t>(m->payload) * 1000 +
                    m->from.value();
      }
      ctx.mail->send(next_, "n", static_cast<std::int64_t>(ctx.cycle));
    }
    if (ctx.own != nullptr) ctx.own->write("received", received_);
    return {};
  }
  bool do_halt(const Ctx&) override { return true; }
  bool do_prepare(const Ctx&, std::optional<SpecId>) override { return true; }
  bool do_initialize(const Ctx& ctx, std::optional<SpecId> target) override {
    if (ctx.own != nullptr && target.has_value()) {
      ctx.own->write("initialized_for",
                     static_cast<std::int64_t>(target->value()));
    }
    return true;
  }
  void save_domain(std::vector<std::uint64_t>& out) const override {
    out.push_back(static_cast<std::uint64_t>(received_));
  }
  void load_domain(const std::vector<std::uint64_t>& in) override {
    received_ = static_cast<std::int64_t>(in.at(0));
  }

 private:
  AppId next_;
  std::int64_t received_ = 0;
};

std::unique_ptr<core::System> relay_system(const core::ReconfigSpec& spec) {
  auto system = std::make_unique<core::System>(spec);
  for (std::size_t i = 0; i < std::size(kDeclared); ++i) {
    system->add_app(std::make_unique<RelayApp>(
        kDeclared[i], kDeclared[(i + 1) % std::size(kDeclared)]));
  }
  return system;
}

TEST(RestoreHazards, MailKeepsItsRecipientsAcrossRestores) {
  const core::ReconfigSpec spec = out_of_order_spec();
  const auto reference = relay_system(spec);
  reference->run(30);

  const auto system = relay_system(spec);
  system->run(10);
  const core::SystemCheckpoint at10 = system->checkpoint();
  system->run(7);
  system->restore(at10);  // router nodes may be reused for other apps
  system->run(20);
  EXPECT_EQ(system->digest(), reference->digest());
}

TEST(RestoreHazards, RestoresAcrossDifferentKeyTables) {
  const core::ReconfigSpec spec = out_of_order_spec();
  sim::FaultPlan plan;
  plan.change_environment(4 * 10'000, kLevel, 1);
  plan.change_environment(14 * 10'000, kLevel, 0);

  // `ahead` has reconfigured (and interned the initialized_for keys) by
  // frame 20; `fresh` has only run steady frames, so its key tables are a
  // strict prefix of ahead's.
  const auto ahead = relay_system(spec);
  ahead->set_fault_plan(plan);
  ahead->run(20);
  const core::SystemCheckpoint at20 = ahead->checkpoint();
  ahead->run(10);

  const auto fresh = relay_system(spec);
  fresh->run(3);
  const core::SystemCheckpoint at3 = fresh->checkpoint();
  fresh->restore(at20);  // names this store never saw are interned
  fresh->run(10);
  EXPECT_EQ(fresh->digest(), ahead->digest());

  // And back: a checkpoint over a shorter table into the longer one.
  const auto replay = relay_system(spec);
  replay->run(3);
  ahead->restore(at3);
  ahead->run(9);
  replay->run(9);
  EXPECT_EQ(ahead->digest(), replay->digest());
}

// --- regions that remember their KeyIds ---

// Every processor's stable-store fingerprints folded frame by frame,
// recorded before regions remembered their keys: 80 frames of a UAV
// mission whose FCS relocates computer 2 -> 1 -> 2 -> 1 and back, and 120
// frames of 4 apps sharing 2 processors, all writing the same key names
// (so an id remembered on one store would name another app's key there).
constexpr std::uint64_t kRelocationStoreFold = 0x3e2055ed748b2786;
constexpr std::uint64_t kSharedHostsStoreFold = 0x6a99f7c6aab11a06;

/// The §7 UAV mission, power cycling Full -> Reduced -> Full -> Reduced ->
/// Minimal -> Full: each Reduced and Minimal period moves the FCS region to
/// computer 1, each Full period moves it back.
struct RelocatingUav {
  core::ReconfigSpec spec;
  avionics::UavPlant plant{42};
  std::unique_ptr<core::System> system;

  RelocatingUav() {
    avionics::UavSpecOptions spec_options;
    spec_options.dwell_frames = 10;
    spec = avionics::make_uav_spec(spec_options);
    core::SystemOptions options;
    options.frame_length = 20'000;
    system = std::make_unique<core::System>(spec, options);
    system->add_app(std::make_unique<avionics::AutopilotApp>(plant));
    system->add_app(std::make_unique<avionics::FcsApp>(plant));
    support::MissionProfile mission(options.frame_length);
    mission.at(10, avionics::kPowerFactor, 1)
        .at(24, avionics::kPowerFactor, 0)
        .at(38, avionics::kPowerFactor, 1)
        .at(52, avionics::kPowerFactor, 2)
        .at(66, avionics::kPowerFactor, 0);
    system->set_fault_plan(mission.build());
  }
};

/// Every processor's committed stable-store fingerprint, by ascending id.
std::uint64_t store_fold(std::uint64_t h, core::System& system) {
  for (const ProcessorId p : system.processors().processor_ids()) {
    h = fnv_mix(h, p.value());
    h = fnv_mix(h, system.processors().processor(p).poll_stable().fingerprint());
  }
  return h;
}

/// The per-frame store folds of `frames` frames.
std::vector<std::uint64_t> run_folding(core::System& system, Cycle frames) {
  std::vector<std::uint64_t> folds;
  for (Cycle f = 0; f < frames; ++f) {
    system.run(1);
    folds.push_back(store_fold(kFnvBasis, system));
  }
  return folds;
}

TEST(RegionMemo, RelocatedAppsWriteToTheirHostEachTime) {
  RelocatingUav uav;
  std::uint64_t h = kFnvBasis;
  for (Cycle f = 0; f < 80; ++f) {
    uav.system->run(1);
    h = store_fold(h, *uav.system);
  }
  EXPECT_PIN(h, kRelocationStoreFold);
  EXPECT_EQ(uav.system->stats().region_relocations, 4u);
  EXPECT_EQ(uav.system->scram().stats().reconfigs_completed, 5u);

  support::RandomSpecParams params;
  params.apps = 4;
  params.processors = 2;
  params.configs = 4;
  params.dependencies = 0;
  const core::ReconfigSpec spec = support::make_random_spec(params, 1);
  core::System shared(spec);
  for (const core::AppDecl& decl : spec.apps()) {
    shared.add_app(std::make_unique<support::SimpleApp>(decl.id, decl.name));
  }
  support::EnvPlanParams plan_params;
  plan_params.factors = spec.factors().factors();
  plan_params.changes = 12;
  plan_params.first_frame = 2;
  plan_params.frames = 100;
  shared.set_fault_plan(support::make_env_plan_factory(plan_params)(1));
  h = kFnvBasis;
  for (Cycle f = 0; f < 120; ++f) {
    shared.run(1);
    h = store_fold(h, shared);
  }
  EXPECT_PIN(h, kSharedHostsStoreFold);
  EXPECT_EQ(shared.stats().region_relocations, 6u);
}

TEST(RegionMemo, WritesAfterARestoreLandWhereAFreshRunPutsThem) {
  RelocatingUav reference;
  const std::vector<std::uint64_t> want = run_folding(*reference.system, 80);

  // Checkpoint at frame 30 (FCS on computer 2), run on through two more
  // relocations, then rewind: the region is bound where frame 60 left it.
  RelocatingUav rewound;
  (void)run_folding(*rewound.system, 30);
  const core::SystemCheckpoint at30 = rewound.system->checkpoint();
  (void)run_folding(*rewound.system, 30);
  rewound.system->restore(at30);
  EXPECT_EQ(run_folding(*rewound.system, 50),
            std::vector<std::uint64_t>(want.begin() + 30, want.end()));

  // A system that never ran a frame: no region has been bound yet.
  RelocatingUav fresh;
  fresh.system->restore(at30);
  EXPECT_EQ(run_folding(*fresh.system, 50),
            std::vector<std::uint64_t>(want.begin() + 30, want.end()));
}

// --- the flat trace ---

// CSV and JSON exports of a 64-frame, 32-app campaign (6 environment
// changes, one processor down from frame 20 to 41): FNV-1a of the bytes and
// their length, recorded before the trace became flat.
constexpr std::uint64_t kCampaignCsv = 0x5e384728bfa20c;
constexpr std::size_t kCampaignCsvBytes = 90323;
constexpr std::uint64_t kCampaignJson = 0x839a4acb8132008a;
constexpr std::size_t kCampaignJsonBytes = 221122;

std::unique_ptr<core::System> campaign_system(const core::ReconfigSpec& spec) {
  auto system = std::make_unique<core::System>(spec);
  for (const core::AppDecl& decl : spec.apps()) {
    system->add_app(std::make_unique<support::SimpleApp>(decl.id, decl.name));
  }
  support::EnvPlanParams plan_params;
  plan_params.factors = spec.factors().factors();
  plan_params.changes = 6;
  plan_params.first_frame = 2;
  plan_params.frames = 56;
  sim::FaultPlan plan = support::make_env_plan_factory(plan_params)(11);
  plan.fail_processor(20 * 10'000, support::synthetic_processor(3));
  plan.repair_processor(41 * 10'000, support::synthetic_processor(3));
  system->set_fault_plan(std::move(plan));
  return system;
}

core::ReconfigSpec campaign_spec() {
  support::ChainSpecParams params;
  params.configs = 4;
  params.apps = 32;
  params.with_recovery_edges = true;
  return support::make_chain_spec(params);
}

TEST(DigestPin, ExportsOfA32AppCampaign) {
  const core::ReconfigSpec spec = campaign_spec();
  const auto system = campaign_system(spec);
  system->run(64);
  EXPECT_EQ(system->scram().stats().reconfigs_completed, 4u);
  std::ostringstream csv;
  trace::write_csv(system->trace(), csv);
  EXPECT_PIN(fnv_bytes(csv.str()), kCampaignCsv);
  EXPECT_EQ(csv.str().size(), kCampaignCsvBytes);
  std::ostringstream json;
  trace::write_json(system->trace(), json);
  EXPECT_PIN(fnv_bytes(json.str()), kCampaignJson);
  EXPECT_EQ(json.str().size(), kCampaignJsonBytes);
}

void expect_same_rows(const trace::SysTrace& got,
                      const trace::SysTrace& want) {
  ASSERT_EQ(got.size(), want.size());
  for (Cycle c = 0; c < want.size(); ++c) {
    const trace::SysStateView g = got.at(c);
    const trace::SysStateView w = want.at(c);
    ASSERT_EQ(g.time, w.time) << "cycle " << c;
    ASSERT_EQ(g.svclvl, w.svclvl) << "cycle " << c;
    ASSERT_EQ(g.env, w.env) << "cycle " << c;
    ASSERT_TRUE(std::ranges::equal(g.apps, w.apps)) << "cycle " << c;
  }
}

TEST(FlatTrace, RestoredTraceEqualsTheCheckpointRowForRow) {
  const core::ReconfigSpec spec = campaign_spec();
  const auto system = campaign_system(spec);
  system->run(24);
  const core::SystemCheckpoint at24 = system->checkpoint();
  ASSERT_EQ(at24.state.trace.size(), 24u);
  system->run(40);  // three more environment changes and the repair
  const trace::SysTrace at64 = system->trace();

  system->restore(at24);
  expect_same_rows(system->trace(), at24.state.trace);
  // Recording on after the restore reproduces the first run row for row,
  // the spare environments left by the longer trace notwithstanding.
  system->run(40);
  expect_same_rows(system->trace(), at64);
  std::ostringstream csv;
  trace::write_csv(system->trace(), csv);
  EXPECT_PIN(fnv_bytes(csv.str()), kCampaignCsv);
}

}  // namespace
}  // namespace arfs
