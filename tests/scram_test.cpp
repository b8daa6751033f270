// Unit tests driving the SCRAM kernel directly through its begin/end frame
// interface, without a full System: the Table 1 phase protocol, dependency
// coordination, trigger absorption, buffering vs. immediate retargeting, and
// the dwell rule.
#include <gtest/gtest.h>

#include "arfs/common/rng.hpp"
#include "arfs/core/scram.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::core {
namespace {

using support::ChainSpecParams;
using support::kChainSeverityFactor;
using support::make_chain_spec;
using support::synthetic_app;
using support::synthetic_config;

// Plans and reports are dense in declaration order; the chain spec declares
// synthetic_app(i) at position i, so directives.at(i) is that app's.

env::EnvState severity(std::int64_t v) {
  return env::EnvState{{kChainSeverityFactor, v}};
}

env::EnvChangeSignal change_signal(Cycle cycle) {
  env::EnvChangeSignal s;
  s.cycle = cycle;
  s.factor = kChainSeverityFactor;
  return s;
}

/// Reports every issued directive as completed (one-frame stages).
PhaseReport complete_all(const FramePlan& plan) {
  PhaseReport done(plan.directives.size(), false);
  for (std::size_t i = 0; i < plan.directives.size(); ++i) {
    done[i] = plan.directives[i].kind != DirectiveKind::kNone;
  }
  return done;
}

class ScramPhases : public ::testing::Test {
 protected:
  ScramPhases() : spec_(make_chain_spec({})), scram_(spec_) {}

  ReconfigSpec spec_;
  Scram scram_;
};

TEST_F(ScramPhases, IdleWithoutSignals) {
  const FramePlan plan = scram_.begin_frame(0, 0, {}, {}, severity(0));
  EXPECT_FALSE(plan.trigger_accepted);
  EXPECT_TRUE(plan.directives.empty());
  EXPECT_FALSE(scram_.reconfiguring());
}

TEST_F(ScramPhases, Table1FourFrameSequence) {
  // Frame 0: signal receipt, no directives.
  FramePlan plan =
      scram_.begin_frame(0, 0, {}, {change_signal(0)}, severity(1));
  EXPECT_TRUE(plan.trigger_accepted);
  EXPECT_TRUE(plan.directives.empty());
  EXPECT_TRUE(scram_.reconfiguring());
  EXPECT_EQ(scram_.target_config(), synthetic_config(1));
  EXPECT_EQ(scram_.active_start_cycle(), Cycle{0});
  (void)scram_.end_frame(0, {});

  // Frame 1: halt to all applications.
  plan = scram_.begin_frame(1, 100, {}, {}, severity(1));
  ASSERT_EQ(plan.directives.size(), 2u);
  for (const Directive& d : plan.directives) {
    EXPECT_EQ(d.kind, DirectiveKind::kHalt);
  }
  (void)scram_.end_frame(1, complete_all(plan));

  // Frame 2: prepare, carrying the target specs.
  plan = scram_.begin_frame(2, 200, {}, {}, severity(1));
  for (const Directive& d : plan.directives) {
    EXPECT_EQ(d.kind, DirectiveKind::kPrepare);
    EXPECT_TRUE(d.target_spec.has_value());
    EXPECT_EQ(d.target_config, synthetic_config(1));
  }
  (void)scram_.end_frame(2, complete_all(plan));

  // Frame 3: initialize; completion at end of frame.
  plan = scram_.begin_frame(3, 300, {}, {}, severity(1));
  for (const Directive& d : plan.directives) {
    EXPECT_EQ(d.kind, DirectiveKind::kInitialize);
  }
  const FrameOutcome outcome = scram_.end_frame(3, complete_all(plan));
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.from, synthetic_config(0));
  EXPECT_EQ(outcome.to, synthetic_config(1));
  EXPECT_FALSE(scram_.reconfiguring());
  EXPECT_EQ(scram_.current_config(), synthetic_config(1));
  EXPECT_EQ(scram_.stats().reconfigs_completed, 1u);
}

TEST_F(ScramPhases, TriggerAbsorbedWhenChooseReturnsCurrent) {
  const FramePlan plan =
      scram_.begin_frame(0, 0, {}, {change_signal(0)}, severity(0));
  EXPECT_FALSE(plan.trigger_accepted);
  EXPECT_FALSE(scram_.reconfiguring());
  EXPECT_EQ(scram_.stats().triggers_absorbed, 1u);
}

TEST_F(ScramPhases, SlowStageHoldsPhase) {
  (void)scram_.begin_frame(0, 0, {}, {change_signal(0)}, severity(1));
  (void)scram_.end_frame(0, {});
  FramePlan plan = scram_.begin_frame(1, 100, {}, {}, severity(1));

  // App 0 completes its halt; app 1 does not.
  const PhaseReport done = {true, false};
  (void)scram_.end_frame(1, done);

  // Next frame: app 0 is left alone (kNone), app 1 is re-issued halt.
  plan = scram_.begin_frame(2, 200, {}, {}, severity(1));
  EXPECT_EQ(plan.directives.at(0).kind, DirectiveKind::kNone);
  EXPECT_EQ(plan.directives.at(1).kind, DirectiveKind::kHalt);
}

TEST(ScramDependencies, DependentWaitsForIndependent) {
  ReconfigSpec spec = make_chain_spec({});
  // App 1's initialize must wait for app 0.
  spec.add_dependency(Dependency{synthetic_app(1), synthetic_app(0),
                                 DepPhase::kInitialize, std::nullopt});
  Scram scram(spec);

  (void)scram.begin_frame(0, 0, {}, {change_signal(0)}, severity(1));
  (void)scram.end_frame(0, {});
  FramePlan plan = scram.begin_frame(1, 100, {}, {}, severity(1));
  (void)scram.end_frame(1, complete_all(plan));  // halt done
  plan = scram.begin_frame(2, 200, {}, {}, severity(1));
  (void)scram.end_frame(2, complete_all(plan));  // prepare done

  // Initialize frame A: only the independent app is signaled.
  plan = scram.begin_frame(3, 300, {}, {}, severity(1));
  EXPECT_EQ(plan.directives.at(0).kind, DirectiveKind::kInitialize);
  EXPECT_EQ(plan.directives.at(1).kind, DirectiveKind::kNone);
  FrameOutcome outcome = scram.end_frame(3, complete_all(plan));
  EXPECT_FALSE(outcome.completed);

  // Initialize frame B: the dependent app may now initialize.
  plan = scram.begin_frame(4, 400, {}, {}, severity(1));
  EXPECT_EQ(plan.directives.at(0).kind, DirectiveKind::kNone);
  EXPECT_EQ(plan.directives.at(1).kind, DirectiveKind::kInitialize);
  outcome = scram.end_frame(4, complete_all(plan));
  EXPECT_TRUE(outcome.completed);
}

/// Drives one reconfiguration toward severity `level` from the signal to
/// completion, every issued stage completing in its frame, and returns
/// each frame's directive kinds after the signal frame.
std::vector<std::vector<DirectiveKind>> reconfigure_to(Scram& scram,
                                                       std::int64_t level) {
  (void)scram.begin_frame(0, 0, {}, {change_signal(0)}, severity(level));
  (void)scram.end_frame(0, {});
  std::vector<std::vector<DirectiveKind>> frames;
  for (Cycle cycle = 1; cycle < 16 && scram.reconfiguring(); ++cycle) {
    const FramePlan plan =
        scram.begin_frame(cycle, cycle * 100, {}, {}, severity(level));
    std::vector<DirectiveKind> kinds;
    for (const Directive& d : plan.directives) kinds.push_back(d.kind);
    frames.push_back(std::move(kinds));
    (void)scram.end_frame(cycle, complete_all(plan));
  }
  EXPECT_FALSE(scram.reconfiguring());
  return frames;
}

TEST(ScramDependencies, PhaseAndTargetSpecificConstraintsGateOnlyTheirOwn) {
  ChainSpecParams params;
  params.apps = 3;
  ReconfigSpec spec = make_chain_spec(params);
  // App 1 halts after app 0, only toward configuration 1; app 2
  // initializes after app 0, only toward configuration 2.
  spec.add_dependency(Dependency{synthetic_app(1), synthetic_app(0),
                                 DepPhase::kHalt, synthetic_config(1)});
  spec.add_dependency(Dependency{synthetic_app(2), synthetic_app(0),
                                 DepPhase::kInitialize, synthetic_config(2)});
  constexpr DirectiveKind kNone = DirectiveKind::kNone;
  constexpr DirectiveKind kHalt = DirectiveKind::kHalt;
  constexpr DirectiveKind kPrepare = DirectiveKind::kPrepare;
  constexpr DirectiveKind kInit = DirectiveKind::kInitialize;
  using Frames = std::vector<std::vector<DirectiveKind>>;

  // Toward configuration 1 the halt waits a frame; prepare and initialize
  // are not held by the halt-phase constraint or the other target's.
  Scram to_one(spec);
  EXPECT_EQ(reconfigure_to(to_one, 1),
            (Frames{{kHalt, kNone, kHalt},
                    {kNone, kHalt, kNone},
                    {kPrepare, kPrepare, kPrepare},
                    {kInit, kInit, kInit}}));

  // Toward configuration 2 only the initialize waits.
  Scram to_two(spec);
  EXPECT_EQ(reconfigure_to(to_two, 2),
            (Frames{{kHalt, kHalt, kHalt},
                    {kPrepare, kPrepare, kPrepare},
                    {kInit, kInit, kNone},
                    {kNone, kNone, kInit}}));
  EXPECT_EQ(to_two.current_config(), synthetic_config(2));
}

TEST(ScramPolicy, BufferQueuesMidReconfigTriggers) {
  ReconfigSpec spec = make_chain_spec({});
  Scram scram(spec, ScramOptions{ReconfigPolicy::kBuffer});

  (void)scram.begin_frame(0, 0, {}, {change_signal(0)}, severity(1));
  (void)scram.end_frame(0, {});

  // Severity worsens mid-reconfiguration; buffered, target unchanged.
  FramePlan plan =
      scram.begin_frame(1, 100, {}, {change_signal(1)}, severity(2));
  EXPECT_EQ(scram.target_config(), synthetic_config(1));
  EXPECT_EQ(scram.stats().buffered_triggers, 1u);
  (void)scram.end_frame(1, complete_all(plan));
  plan = scram.begin_frame(2, 200, {}, {}, severity(2));
  (void)scram.end_frame(2, complete_all(plan));
  plan = scram.begin_frame(3, 300, {}, {}, severity(2));
  FrameOutcome outcome = scram.end_frame(3, complete_all(plan));
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.to, synthetic_config(1));

  // The buffered trigger starts the follow-up reconfiguration next frame.
  plan = scram.begin_frame(4, 400, {}, {}, severity(2));
  EXPECT_TRUE(plan.trigger_accepted);
  EXPECT_EQ(scram.target_config(), synthetic_config(2));
}

TEST(ScramPolicy, ImmediateRetargetsDuringHalt) {
  ReconfigSpec spec = make_chain_spec({});
  Scram scram(spec, ScramOptions{ReconfigPolicy::kImmediate});

  (void)scram.begin_frame(0, 0, {}, {change_signal(0)}, severity(1));
  (void)scram.end_frame(0, {});

  // During the halt frame the severity worsens: target switches without
  // restarting the (target-independent) halt stage.
  FramePlan plan =
      scram.begin_frame(1, 100, {}, {change_signal(1)}, severity(2));
  EXPECT_EQ(scram.target_config(), synthetic_config(2));
  EXPECT_FALSE(plan.retargeted);  // no rewind needed during halt
  EXPECT_EQ(plan.directives.at(0).kind, DirectiveKind::kHalt);
  (void)scram.end_frame(1, complete_all(plan));

  plan = scram.begin_frame(2, 200, {}, {}, severity(2));
  (void)scram.end_frame(2, complete_all(plan));
  plan = scram.begin_frame(3, 300, {}, {}, severity(2));
  const FrameOutcome outcome = scram.end_frame(3, complete_all(plan));
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.to, synthetic_config(2));
  EXPECT_EQ(scram.stats().retargets, 1u);
}

TEST(ScramPolicy, ImmediateRetargetAfterPrepareRewinds) {
  ReconfigSpec spec = make_chain_spec({});
  Scram scram(spec, ScramOptions{ReconfigPolicy::kImmediate});

  (void)scram.begin_frame(0, 0, {}, {change_signal(0)}, severity(1));
  (void)scram.end_frame(0, {});
  FramePlan plan = scram.begin_frame(1, 100, {}, {}, severity(1));
  (void)scram.end_frame(1, complete_all(plan));  // halted
  plan = scram.begin_frame(2, 200, {}, {}, severity(1));
  (void)scram.end_frame(2, complete_all(plan));  // prepared for config 1

  // Severity worsens after prepare: applications must rewind and re-prepare
  // toward the new target.
  plan = scram.begin_frame(3, 300, {}, {change_signal(3)}, severity(2));
  EXPECT_TRUE(plan.retargeted);
  EXPECT_EQ(plan.directives.at(0).kind, DirectiveKind::kPrepare);
  EXPECT_EQ(plan.directives.at(0).target_config,
            synthetic_config(2));
  (void)scram.end_frame(3, complete_all(plan));

  plan = scram.begin_frame(4, 400, {}, {}, severity(2));
  const FrameOutcome outcome = scram.end_frame(4, complete_all(plan));
  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.to, synthetic_config(2));
}

TEST(ScramDwell, BlocksBackToBackReconfigs) {
  support::ChainSpecParams params;
  params.with_recovery_edges = true;  // severity can move both ways
  params.dwell_frames = 10;
  ReconfigSpec spec = make_chain_spec(params);
  Scram scram(spec);

  // First reconfiguration completes at cycle 3.
  (void)scram.begin_frame(0, 0, {}, {change_signal(0)}, severity(1));
  (void)scram.end_frame(0, {});
  for (Cycle c = 1; c <= 3; ++c) {
    const FramePlan plan = scram.begin_frame(c, 0, {}, {}, severity(1));
    (void)scram.end_frame(c, complete_all(plan));
  }
  EXPECT_EQ(scram.current_config(), synthetic_config(1));

  // Severity flips back immediately: the dwell rule defers acceptance.
  FramePlan plan =
      scram.begin_frame(4, 400, {}, {change_signal(4)}, severity(0));
  EXPECT_FALSE(plan.trigger_accepted);
  EXPECT_GT(scram.stats().dwell_blocked_frames, 0u);
  for (Cycle c = 5; c < 14; ++c) {
    plan = scram.begin_frame(c, 0, {}, {}, severity(0));
    EXPECT_FALSE(plan.trigger_accepted) << "cycle " << c;
    (void)scram.end_frame(c, {});
  }
  // Dwell expires (completion at 3 + 1 + 10 = 14): accepted.
  plan = scram.begin_frame(14, 0, {}, {}, severity(0));
  EXPECT_TRUE(plan.trigger_accepted);
  EXPECT_EQ(scram.target_config(), synthetic_config(0));
}

// Every directive carries its app's spec and host in the target
// configuration, also on the frames that keep the previous frame's targets
// (the same SFTA) and after a retarget; idle and frame-0 plans are empty.
// Random specs have apps that are off in some configurations, shared and
// shuffled placements and dependencies; stages complete at random, so some
// take several frames.
TEST(ScramTargets, EveryDirectiveCarriesItsTargetSpecAndHost) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    support::RandomSpecParams params;
    params.apps = 6;
    params.configs = 5;
    params.processors = 4;
    params.dependencies = 3;
    const ReconfigSpec spec = support::make_random_spec(params, seed);
    for (const ReconfigPolicy policy :
         {ReconfigPolicy::kBuffer, ReconfigPolicy::kImmediate}) {
      for (const PhaseBarrier barrier :
           {PhaseBarrier::kGlobal, PhaseBarrier::kRelaxed}) {
        ScramOptions options;
        options.policy = policy;
        options.barrier = barrier;
        Scram scram(spec, options);
        Rng rng(seed * 31 + 7);
        env::EnvState env_now;
        for (std::size_t f = 0; f < params.factors; ++f) {
          env_now[support::synthetic_factor(f)] = 0;
        }
        for (Cycle c = 0; c < 400; ++c) {
          std::vector<env::EnvChangeSignal> signals;
          if (rng.chance(0.15)) {
            const FactorId factor = support::synthetic_factor(
                rng.uniform(0, params.factors - 1));
            env::EnvChangeSignal s;
            s.cycle = c;
            s.factor = factor;
            s.old_value = env_now[factor];
            s.new_value = 1 - s.old_value;
            env_now[factor] = s.new_value;
            signals.push_back(s);
          }
          const FramePlan& plan = scram.begin_frame(c, 0, {}, signals,
                                                    env_now);
          if (!scram.reconfiguring() || plan.trigger_accepted) {
            EXPECT_TRUE(plan.directives.empty()) << "cycle " << c;
          } else {
            const ConfigId target = *scram.target_config();
            const Configuration& cfg = spec.config(target);
            ASSERT_EQ(plan.directives.size(), spec.apps().size());
            EXPECT_EQ(plan.target, target);
            for (std::size_t i = 0; i < spec.apps().size(); ++i) {
              const AppId app = spec.apps()[i].id;
              const Directive& d = plan.directives[i];
              EXPECT_EQ(d.target_config, target) << "cycle " << c;
              EXPECT_EQ(d.target_spec, cfg.spec_of(app)) << "cycle " << c;
              if (d.target_spec.has_value()) {
                EXPECT_EQ(d.target_host, *cfg.host_of(app))
                    << "cycle " << c;
              }
              ++checked;
            }
          }
          PhaseReport done(plan.directives.size(), false);
          for (std::size_t i = 0; i < plan.directives.size(); ++i) {
            done[i] = plan.directives[i].kind != DirectiveKind::kNone &&
                      rng.chance(0.7);
          }
          (void)scram.end_frame(c, done);
        }
      }
    }
  }
  EXPECT_GT(checked, 10'000u);
}

}  // namespace
}  // namespace arfs::core
