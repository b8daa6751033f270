// Property sweeps: the reproduction's substitute for the paper's PVS proofs.
//
// The PVS theorems state that SP1-SP4 hold on every trace of the model. We
// cannot quantify over all traces, but we can sweep large randomized
// families of systems (shape drawn from a seed) under randomized fault
// campaigns and assert the properties on every completed reconfiguration of
// every trace. Sweeps also cross-check runtime behaviour against the static
// analyses: every transition taken at runtime must be an edge of the
// statically computed transition graph, and every spec that passes coverage
// must never strand the SCRAM.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "arfs/analysis/coverage.hpp"
#include "arfs/analysis/graph.hpp"
#include "arfs/analysis/timing.hpp"
#include "arfs/core/system.hpp"
#include "arfs/props/online.hpp"
#include "arfs/props/report.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs {
namespace {

using core::ReconfigSpec;
using core::System;
using support::SimpleApp;
using support::SimpleAppParams;

struct SweepParam {
  std::uint64_t seed = 0;
  std::size_t apps = 3;
  std::size_t configs = 4;
  std::size_t factors = 2;
  std::size_t dependencies = 1;
  std::size_t env_changes = 12;
  core::ReconfigPolicy policy = core::ReconfigPolicy::kBuffer;
  core::PhaseBarrier barrier = core::PhaseBarrier::kGlobal;
  Cycle max_stage_frames = 1;

  friend std::ostream& operator<<(std::ostream& os, const SweepParam& p) {
    return os << "seed" << p.seed << "_a" << p.apps << "_c" << p.configs
              << "_f" << p.factors << "_d" << p.dependencies << "_"
              << (p.policy == core::ReconfigPolicy::kBuffer ? "buffer"
                                                            : "immediate")
              << (p.barrier == core::PhaseBarrier::kRelaxed ? "_relaxed"
                                                            : "_global")
              << "_s" << p.max_stage_frames;
  }
};

class RandomSystemSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RandomSystemSweep, AllPropertiesHoldUnderRandomCampaign) {
  const SweepParam& p = GetParam();

  support::RandomSpecParams spec_params;
  spec_params.apps = p.apps;
  spec_params.configs = p.configs;
  spec_params.factors = p.factors;
  spec_params.dependencies = p.dependencies;
  spec_params.transition_bound = 64;
  const ReconfigSpec spec = support::make_random_spec(spec_params, p.seed);

  // Static assurance must discharge before the run (covering_txns).
  const analysis::CoverageReport coverage = analysis::check_coverage(spec);
  ASSERT_TRUE(coverage.all_discharged());
  const analysis::TransitionGraph graph =
      analysis::TransitionGraph::build(spec);

  core::SystemOptions options;
  options.scram.policy = p.policy;
  options.scram.barrier = p.barrier;
  System system(spec, options);

  Rng rng(p.seed * 7919 + 13);
  for (std::size_t a = 0; a < p.apps; ++a) {
    SimpleAppParams app_params;
    app_params.halt_frames = 1 + rng.uniform(0, p.max_stage_frames - 1);
    app_params.prepare_frames = 1 + rng.uniform(0, p.max_stage_frames - 1);
    app_params.initialize_frames = 1 + rng.uniform(0, p.max_stage_frames - 1);
    system.add_app(std::make_unique<SimpleApp>(
        support::synthetic_app(a), "sweep-app-" + std::to_string(a),
        app_params));
  }

  // Random environment-change campaign over 600 frames; a tail with no
  // events lets the final reconfiguration complete.
  sim::CampaignParams campaign;
  campaign.horizon = 500 * 10'000;
  campaign.environment_changes = p.env_changes;
  for (std::size_t f = 0; f < p.factors; ++f) {
    campaign.factors.push_back(support::synthetic_factor(f));
  }
  campaign.factor_min = 0;
  campaign.factor_max = 1;
  system.set_fault_plan(sim::generate_campaign(campaign, rng));

  system.run(700);

  // The four formal properties hold on every completed reconfiguration.
  const props::TraceReport report = props::check_trace(system.trace(), spec);
  EXPECT_TRUE(report.all_hold()) << props::render(report);

  // With a quiet 200-frame tail, nothing is left mid-reconfiguration.
  EXPECT_FALSE(report.incomplete_at_end);

  // Runtime/static agreement: every transition taken appears in the graph.
  std::set<std::pair<ConfigId, ConfigId>> edges;
  for (const analysis::Transition& t : graph.edges()) {
    edges.insert({t.from, t.to});
  }
  for (const props::ReconfigVerdict& v : report.verdicts) {
    if (v.reconfig.from == v.reconfig.to) continue;  // immediate re-choice
    EXPECT_TRUE(edges.contains({v.reconfig.from, v.reconfig.to}))
        << "runtime transition " << v.reconfig.from.value() << "->"
        << v.reconfig.to.value() << " not predicted by static analysis";
  }

  // The SCRAM's accounting is consistent with the trace.
  EXPECT_EQ(system.scram().stats().reconfigs_completed,
            report.reconfig_count);

  // Online/offline cross-validation: streaming the same trace through the
  // bounded-memory monitor yields identical verdict counts.
  props::OnlineMonitor monitor(spec, 10'000);
  std::uint64_t online_violations = 0;
  for (Cycle c = 0; c < system.trace().size(); ++c) {
    if (const auto v = monitor.observe(system.trace().at(c));
        v.has_value() && !v->all_hold()) {
      ++online_violations;
    }
  }
  EXPECT_EQ(monitor.stats().reconfigs_checked, report.reconfig_count);
  EXPECT_EQ(online_violations, 0u);
}

std::vector<SweepParam> sweep_matrix() {
  std::vector<SweepParam> params;
  // Seeds x policies at default shape.
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u}) {
    for (const core::ReconfigPolicy policy :
         {core::ReconfigPolicy::kBuffer, core::ReconfigPolicy::kImmediate}) {
      SweepParam p;
      p.seed = seed;
      p.policy = policy;
      params.push_back(p);
    }
  }
  // Shape variations.
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    SweepParam p;
    p.seed = seed;
    p.apps = 5;
    p.configs = 6;
    p.factors = 3;
    p.dependencies = 3;
    p.env_changes = 20;
    params.push_back(p);
  }
  // Multi-frame stages.
  for (std::uint64_t seed : {21u, 22u, 23u, 24u}) {
    SweepParam p;
    p.seed = seed;
    p.max_stage_frames = 3;
    p.env_changes = 8;
    params.push_back(p);
  }
  // Relaxed barrier, both policies, with stage skew and dependencies.
  for (std::uint64_t seed : {41u, 42u, 43u, 44u}) {
    for (const core::ReconfigPolicy policy :
         {core::ReconfigPolicy::kBuffer, core::ReconfigPolicy::kImmediate}) {
      SweepParam p;
      p.seed = seed;
      p.policy = policy;
      p.barrier = core::PhaseBarrier::kRelaxed;
      p.max_stage_frames = 3;
      p.dependencies = 2;
      p.env_changes = 10;
      params.push_back(p);
    }
  }
  // Single app, many configs; many apps, two configs.
  {
    SweepParam p;
    p.seed = 31;
    p.apps = 1;
    p.configs = 8;
    p.dependencies = 0;
    params.push_back(p);
    SweepParam q;
    q.seed = 32;
    q.apps = 6;
    q.configs = 2;
    q.dependencies = 4;
    params.push_back(q);
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Shapes, RandomSystemSweep,
                         ::testing::ValuesIn(sweep_matrix()),
                         [](const auto& info) {
                           std::ostringstream os;
                           os << info.param;
                           return os.str();
                         });

// --- chain sweeps: restriction-time formula vs. observed behaviour ---------

class ChainSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ChainSweep, ObservedRestrictionNeverExceedsStaticBound) {
  const std::size_t levels = GetParam();
  support::ChainSpecParams params;
  params.configs = levels;
  params.apps = 2;
  params.transition_bound = 8;
  const ReconfigSpec spec = support::make_chain_spec(params);
  const analysis::TransitionGraph graph =
      analysis::TransitionGraph::build(spec);
  const analysis::ChainBound bound =
      analysis::worst_chain_restriction(spec, graph);
  ASSERT_TRUE(bound.frames.has_value());
  EXPECT_EQ(*bound.frames, (levels - 1) * 8);

  // Drive the worst case: severity degrades one level at a time, each new
  // failure arriving mid-reconfiguration (buffered until completion).
  System system(spec);
  system.add_app(std::make_unique<SimpleApp>(support::synthetic_app(0), "a"));
  system.add_app(std::make_unique<SimpleApp>(support::synthetic_app(1), "b"));
  system.run(3);
  for (std::size_t severity = 1; severity < levels; ++severity) {
    system.set_factor(support::kChainSeverityFactor,
                      static_cast<std::int64_t>(severity));
    system.run(2);  // next failure lands inside the ongoing reconfiguration
  }
  system.run(levels * 10);

  const props::TraceReport report = props::check_trace(system.trace(), spec);
  EXPECT_TRUE(report.all_hold()) << props::render(report);

  // Total observed restricted frames along the chain <= the static bound.
  Cycle restricted = 0;
  for (const props::ReconfigVerdict& v : report.verdicts) {
    restricted += trace::duration_frames(v.reconfig);
  }
  EXPECT_LE(restricted, *bound.frames);
  EXPECT_EQ(system.scram().current_config(),
            support::synthetic_config(levels - 1));
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainSweep,
                         ::testing::Values(2, 3, 4, 6, 8, 12));

}  // namespace
}  // namespace arfs
