// Tests of the SP1-SP4 checkers on hand-built traces: each property is
// exercised with a conforming trace and with traces violating it in each
// distinct way the formal predicate can fail.
#include <gtest/gtest.h>

#include "arfs/props/properties.hpp"
#include "arfs/props/report.hpp"
#include "arfs/support/synthetic.hpp"

namespace arfs::props {
namespace {

using support::kChainSeverityFactor;
using support::synthetic_app;
using support::synthetic_config;
using support::synthetic_spec;
using trace::AppSnapshot;
using trace::ReconfState;
using trace::SysState;
using trace::SysTrace;

core::ReconfigSpec chain_spec() {
  support::ChainSpecParams params;
  params.configs = 3;
  params.apps = 1;
  params.transition_bound = 4;  // exactly the canonical SFTA length
  return support::make_chain_spec(params);
}

AppSnapshot snap(ReconfState st, bool pre_ok = false,
                 std::optional<SpecId> spec = synthetic_spec(0, 0)) {
  AppSnapshot s;
  s.reconf_st = st;
  s.spec = spec;
  s.precondition_ok = pre_ok;
  s.postcondition_ok = st != ReconfState::kNormal &&
                       st != ReconfState::kInterrupted;
  return s;
}

SysState mk_state(Cycle c, ConfigId svclvl, AppSnapshot app_snap,
                  std::int64_t severity) {
  SysState s;
  s.cycle = c;
  s.time = static_cast<SimTime>(c + 1) * 1000;
  s.svclvl = svclvl;
  s.apps = {{synthetic_app(0), app_snap}};
  s.env[kChainSeverityFactor] = severity;
  return s;
}

/// The canonical conforming trace: normal, then a 4-frame SFTA from config 0
/// to config 1 driven by severity 1, then normal operation.
SysTrace conforming_trace() {
  SysTrace t(1000);
  const ConfigId c0 = synthetic_config(0);
  const ConfigId c1 = synthetic_config(1);
  t.append(mk_state(0, c0, snap(ReconfState::kNormal), 0));
  t.append(mk_state(1, c0, snap(ReconfState::kInterrupted), 1));
  t.append(mk_state(2, c0, snap(ReconfState::kHalted), 1));
  t.append(mk_state(3, c0, snap(ReconfState::kPrepared), 1));
  SysState end = mk_state(4, c1, snap(ReconfState::kNormal, true,
                                      synthetic_spec(0, 1)), 1);
  t.append(std::move(end));
  t.append(mk_state(5, c1, snap(ReconfState::kNormal, true,
                                synthetic_spec(0, 1)), 1));
  return t;
}

trace::Reconfiguration only_reconfig(const SysTrace& t) {
  const auto rs = trace::get_reconfigs(t);
  EXPECT_EQ(rs.size(), 1u);
  return rs.at(0);
}

TEST(Sp1, HoldsOnConformingTrace) {
  const core::ReconfigSpec spec = chain_spec();
  const SysTrace t = conforming_trace();
  const auto r = only_reconfig(t);
  EXPECT_TRUE(check_sp1(t, r).holds) << check_sp1(t, r).detail;
}

TEST(Sp1, FailsWithoutInterruptedAppAtStart) {
  const SysTrace good = conforming_trace();
  SysTrace t(1000);
  for (Cycle c = 0; c < good.size(); ++c) {
    SysState s(good.at(c));
    if (c == 1) {
      trace::find_app(s, synthetic_app(0))->reconf_st = ReconfState::kHalted;
    }
    t.append(std::move(s));
  }
  const auto r = only_reconfig(t);
  const PropertyResult res = check_sp1(t, r);
  EXPECT_FALSE(res.holds);
  EXPECT_NE(res.detail.find("interrupted"), std::string::npos);
}

TEST(Sp1, FailsWithNormalAppInsideInterval) {
  const SysTrace good = conforming_trace();
  SysTrace t(1000);
  for (Cycle c = 0; c < good.size(); ++c) {
    SysState s(good.at(c));
    if (c == 2) {
      trace::find_app(s, synthetic_app(0))->reconf_st = ReconfState::kNormal;
    }
    t.append(std::move(s));
  }
  // The "hole" at cycle 2 splits the interval; get_reconfigs sees a 2-frame
  // reconfiguration first. Build the check against the original interval.
  trace::Reconfiguration r;
  r.start_c = 1;
  r.end_c = 4;
  r.from = synthetic_config(0);
  r.to = synthetic_config(1);
  const PropertyResult res = check_sp1(t, r);
  EXPECT_FALSE(res.holds);
  EXPECT_NE(res.detail.find("normal inside"), std::string::npos);
}

TEST(Sp2, HoldsWhenEnvDuringIntervalExplainsTarget) {
  const core::ReconfigSpec spec = chain_spec();
  const SysTrace t = conforming_trace();
  const auto r = only_reconfig(t);
  EXPECT_TRUE(check_sp2(t, r, spec).holds);
}

TEST(Sp2, FailsWhenTargetNeverChosen) {
  const core::ReconfigSpec spec = chain_spec();
  const SysTrace good = conforming_trace();
  SysTrace t(1000);
  for (Cycle c = 0; c < good.size(); ++c) {
    SysState s(good.at(c));
    s.env[kChainSeverityFactor] = 0;  // environment never justified config 1
    t.append(std::move(s));
  }
  const auto r = only_reconfig(t);
  const PropertyResult res = check_sp2(t, r, spec);
  EXPECT_FALSE(res.holds);
}

TEST(Sp2, HoldsWhenEnvChangesBackBeforeEnd) {
  // SP2 is an EXISTS over the interval: the justifying instant may be any
  // cycle inside it, even if the environment later changes again.
  const core::ReconfigSpec spec = chain_spec();
  const SysTrace good = conforming_trace();
  SysTrace t(1000);
  for (Cycle c = 0; c < good.size(); ++c) {
    SysState s(good.at(c));
    if (c >= 3) s.env[kChainSeverityFactor] = 2;  // worsened late
    t.append(std::move(s));
  }
  const auto r = only_reconfig(t);
  EXPECT_TRUE(check_sp2(t, r, spec).holds);
}

TEST(Sp3, HoldsAtExactBound) {
  const core::ReconfigSpec spec = chain_spec();  // bound = 4 frames
  const SysTrace t = conforming_trace();         // duration = 4 frames
  const auto r = only_reconfig(t);
  EXPECT_TRUE(check_sp3(t, r, spec).holds) << check_sp3(t, r, spec).detail;
}

TEST(Sp3, FailsBeyondBound) {
  support::ChainSpecParams params;
  params.configs = 3;
  params.apps = 1;
  params.transition_bound = 3;  // tighter than the 4-frame SFTA
  const core::ReconfigSpec spec = support::make_chain_spec(params);
  const SysTrace t = conforming_trace();
  const auto r = only_reconfig(t);
  const PropertyResult res = check_sp3(t, r, spec);
  EXPECT_FALSE(res.holds);
  EXPECT_NE(res.detail.find("bound"), std::string::npos);
}

TEST(Sp3, FailsWhenBoundUndefined) {
  // A spec that only bounds the 0 -> 1 transition; a trace claiming a
  // reverse 1 -> 0 reconfiguration has no T and must fail SP3.
  core::ReconfigSpec spec;
  core::AppDecl decl;
  decl.id = synthetic_app(0);
  decl.name = "a";
  decl.specs = {core::FunctionalSpec{synthetic_spec(0, 0), "s", {}, 100, 200}};
  spec.declare_app(std::move(decl));
  spec.declare_factor(env::FactorSpec{kChainSeverityFactor, "sev", 0, 1, 0});
  for (int c = 0; c < 2; ++c) {
    core::Configuration config;
    config.id = synthetic_config(c);
    config.name = "c" + std::to_string(c);
    config.assignment = {{synthetic_app(0), synthetic_spec(0, 0)}};
    config.placement = {{synthetic_app(0), support::synthetic_processor(0)}};
    config.safe = (c == 1);
    spec.declare_config(std::move(config));
  }
  spec.set_transition_bound(synthetic_config(0), synthetic_config(1), 8);
  spec.set_choose([](ConfigId cur, const env::EnvState&) { return cur; });
  spec.set_initial_config(synthetic_config(0));
  spec.validate();

  SysTrace t(1000);
  t.append(mk_state(0, synthetic_config(1), snap(ReconfState::kNormal), 0));
  t.append(mk_state(1, synthetic_config(1),
                    snap(ReconfState::kInterrupted), 0));
  t.append(mk_state(2, synthetic_config(0),
                    snap(ReconfState::kNormal, true), 0));
  const auto r = trace::get_reconfigs(t).at(0);
  const PropertyResult res = check_sp3(t, r, spec);
  EXPECT_FALSE(res.holds);
  EXPECT_NE(res.detail.find("no transition bound"), std::string::npos);
}

TEST(Sp4, HoldsWhenPreconditionEstablished) {
  const core::ReconfigSpec spec = chain_spec();
  const SysTrace t = conforming_trace();
  const auto r = only_reconfig(t);
  EXPECT_TRUE(check_sp4(t, r, spec).holds) << check_sp4(t, r, spec).detail;
}

TEST(Sp4, FailsWithoutPrecondition) {
  const core::ReconfigSpec spec = chain_spec();
  const SysTrace good = conforming_trace();
  SysTrace t(1000);
  for (Cycle c = 0; c < good.size(); ++c) {
    SysState s(good.at(c));
    if (c >= 4) trace::find_app(s, synthetic_app(0))->precondition_ok = false;
    t.append(std::move(s));
  }
  const auto r = only_reconfig(t);
  EXPECT_FALSE(check_sp4(t, r, spec).holds);
}

TEST(Sp4, FailsWithWrongSpecAtEnd) {
  const core::ReconfigSpec spec = chain_spec();
  const SysTrace good = conforming_trace();
  SysTrace t(1000);
  for (Cycle c = 0; c < good.size(); ++c) {
    SysState s(good.at(c));
    if (c >= 4) {
      // Stale spec.
      trace::find_app(s, synthetic_app(0))->spec = synthetic_spec(0, 0);
    }
    t.append(std::move(s));
  }
  const auto r = only_reconfig(t);
  const PropertyResult res = check_sp4(t, r, spec);
  EXPECT_FALSE(res.holds);
  EXPECT_NE(res.detail.find("specification"), std::string::npos);
}

TEST(Sp4, OffAppsNeedNoPrecondition) {
  // An application that is off in Cj is exempt from SP4's per-app clause.
  core::ReconfigSpec spec;
  core::AppDecl decl;
  decl.id = synthetic_app(0);
  decl.name = "a";
  decl.specs = {core::FunctionalSpec{synthetic_spec(0, 0), "s", {}, 100, 200}};
  spec.declare_app(std::move(decl));
  spec.declare_factor(env::FactorSpec{kChainSeverityFactor, "sev", 0, 1, 0});

  core::Configuration on;
  on.id = synthetic_config(0);
  on.name = "on";
  on.assignment = {{synthetic_app(0), synthetic_spec(0, 0)}};
  on.placement = {{synthetic_app(0), support::synthetic_processor(0)}};
  spec.declare_config(std::move(on));

  core::Configuration off;  // the app is off here
  off.id = synthetic_config(1);
  off.name = "off";
  off.safe = true;
  spec.declare_config(std::move(off));

  spec.set_transition_bound(synthetic_config(0), synthetic_config(1), 4);
  spec.set_choose([](ConfigId, const env::EnvState& e) {
    return e.at(kChainSeverityFactor) == 0 ? synthetic_config(0)
                                           : synthetic_config(1);
  });
  spec.set_initial_config(synthetic_config(0));
  spec.validate();

  SysTrace t(1000);
  t.append(mk_state(0, synthetic_config(0), snap(ReconfState::kNormal), 0));
  t.append(mk_state(1, synthetic_config(0),
                    snap(ReconfState::kInterrupted), 1));
  t.append(mk_state(2, synthetic_config(0), snap(ReconfState::kHalted), 1));
  t.append(mk_state(3, synthetic_config(0), snap(ReconfState::kPrepared), 1));
  // End state: app off (no spec), precondition flag irrelevant.
  t.append(mk_state(4, synthetic_config(1),
                    snap(ReconfState::kNormal, false, std::nullopt), 1));
  const auto r = trace::get_reconfigs(t).at(0);
  EXPECT_TRUE(check_sp4(t, r, spec).holds) << check_sp4(t, r, spec).detail;
}

TEST(Report, AggregatesVerdicts) {
  const core::ReconfigSpec spec = chain_spec();
  const SysTrace t = conforming_trace();
  const TraceReport report = check_trace(t, spec);
  EXPECT_EQ(report.reconfig_count, 1u);
  EXPECT_TRUE(report.all_hold());
  EXPECT_FALSE(report.incomplete_at_end);
  EXPECT_NE(render(report).find("reconfigurations: 1"), std::string::npos);
}

TEST(Report, RenderListsFailures) {
  support::ChainSpecParams params;
  params.configs = 3;
  params.apps = 1;
  params.transition_bound = 3;  // SP3 will fail
  const core::ReconfigSpec spec = support::make_chain_spec(params);
  const SysTrace t = conforming_trace();
  const TraceReport report = check_trace(t, spec);
  EXPECT_EQ(report.sp3_failures, 1u);
  EXPECT_FALSE(report.all_hold());
  EXPECT_NE(render(report).find("SP3"), std::string::npos);
}

}  // namespace
}  // namespace arfs::props
