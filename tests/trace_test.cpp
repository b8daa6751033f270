#include <gtest/gtest.h>

#include <sstream>

#include "arfs/common/check.hpp"
#include "arfs/trace/export.hpp"
#include "arfs/trace/reconfigs.hpp"
#include "arfs/trace/recorder.hpp"
#include "arfs/trace/state.hpp"

namespace arfs::trace {
namespace {

SysState state(Cycle cycle, ConfigId svclvl,
               std::initializer_list<std::pair<AppId, ReconfState>> apps) {
  SysState s;
  s.cycle = cycle;
  s.time = static_cast<SimTime>(cycle) * 1000;
  s.svclvl = svclvl;
  for (const auto& [app, st] : apps) {
    AppSnapshot snap;
    snap.reconf_st = st;
    snap.spec = SpecId{1};
    s.apps.emplace_back(app, snap);  // callers list apps in AppId order
  }
  return s;
}

TEST(SysStateHelpers, AllNormalAndAnyInterrupted) {
  const SysState normal =
      state(0, ConfigId{1}, {{AppId{1}, ReconfState::kNormal},
                             {AppId{2}, ReconfState::kNormal}});
  EXPECT_TRUE(all_normal(normal));
  EXPECT_FALSE(any_interrupted(normal));

  const SysState mixed =
      state(0, ConfigId{1}, {{AppId{1}, ReconfState::kInterrupted},
                             {AppId{2}, ReconfState::kNormal}});
  EXPECT_FALSE(all_normal(mixed));
  EXPECT_TRUE(any_interrupted(mixed));
}

TEST(SysStateHelpers, StateNamesDistinct) {
  EXPECT_EQ(to_string(ReconfState::kNormal), "normal");
  EXPECT_EQ(to_string(ReconfState::kAwaitingStart), "awaiting-start");
  EXPECT_NE(to_string(ReconfState::kHalted), to_string(ReconfState::kPrepared));
}

TEST(SysTrace, AppendsContiguously) {
  SysTrace trace(1000);
  trace.append(state(0, ConfigId{1}, {{AppId{1}, ReconfState::kNormal}}));
  trace.append(state(1, ConfigId{1}, {{AppId{1}, ReconfState::kNormal}}));
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.at(1).cycle, 1u);
  EXPECT_THROW(
      trace.append(state(5, ConfigId{1}, {{AppId{1}, ReconfState::kNormal}})),
      ContractViolation);
  EXPECT_THROW((void)trace.at(9), ContractViolation);
}

SysTrace trace_with_one_reconfig() {
  SysTrace trace(1000);
  const AppId a{1};
  trace.append(state(0, ConfigId{1}, {{a, ReconfState::kNormal}}));
  trace.append(state(1, ConfigId{1}, {{a, ReconfState::kInterrupted}}));
  trace.append(state(2, ConfigId{1}, {{a, ReconfState::kHalted}}));
  trace.append(state(3, ConfigId{1}, {{a, ReconfState::kPrepared}}));
  trace.append(state(4, ConfigId{2}, {{a, ReconfState::kNormal}}));
  trace.append(state(5, ConfigId{2}, {{a, ReconfState::kNormal}}));
  return trace;
}

TEST(GetReconfigs, ExtractsCompletedInterval) {
  const SysTrace trace = trace_with_one_reconfig();
  const auto reconfigs = get_reconfigs(trace);
  ASSERT_EQ(reconfigs.size(), 1u);
  EXPECT_EQ(reconfigs[0].start_c, 1u);
  EXPECT_EQ(reconfigs[0].end_c, 4u);
  EXPECT_EQ(reconfigs[0].from, ConfigId{1});
  EXPECT_EQ(reconfigs[0].to, ConfigId{2});
  EXPECT_EQ(duration_frames(reconfigs[0]), 4u);
  EXPECT_FALSE(incomplete_reconfig(trace).has_value());
}

TEST(GetReconfigs, EmptyTraceYieldsNothing) {
  const SysTrace trace(1000);
  EXPECT_TRUE(get_reconfigs(trace).empty());
  EXPECT_FALSE(incomplete_reconfig(trace).has_value());
}

TEST(GetReconfigs, DetectsIncompleteAtEnd) {
  SysTrace trace(1000);
  const AppId a{1};
  trace.append(state(0, ConfigId{1}, {{a, ReconfState::kNormal}}));
  trace.append(state(1, ConfigId{1}, {{a, ReconfState::kInterrupted}}));
  trace.append(state(2, ConfigId{1}, {{a, ReconfState::kHalted}}));
  EXPECT_TRUE(get_reconfigs(trace).empty());
  EXPECT_EQ(incomplete_reconfig(trace), Cycle{1});
}

TEST(GetReconfigs, BackToBackIntervalsSeparated) {
  SysTrace trace(1000);
  const AppId a{1};
  trace.append(state(0, ConfigId{1}, {{a, ReconfState::kNormal}}));
  trace.append(state(1, ConfigId{1}, {{a, ReconfState::kInterrupted}}));
  trace.append(state(2, ConfigId{2}, {{a, ReconfState::kNormal}}));
  trace.append(state(3, ConfigId{2}, {{a, ReconfState::kInterrupted}}));
  trace.append(state(4, ConfigId{3}, {{a, ReconfState::kNormal}}));
  const auto reconfigs = get_reconfigs(trace);
  ASSERT_EQ(reconfigs.size(), 2u);
  EXPECT_EQ(reconfigs[0].to, ConfigId{2});
  EXPECT_EQ(reconfigs[1].from, ConfigId{2});
  EXPECT_EQ(reconfigs[1].to, ConfigId{3});
}

TEST(GetReconfigs, ReconfigStartingAtCycleZero) {
  SysTrace trace(1000);
  const AppId a{1};
  trace.append(state(0, ConfigId{1}, {{a, ReconfState::kInterrupted}}));
  trace.append(state(1, ConfigId{2}, {{a, ReconfState::kNormal}}));
  const auto reconfigs = get_reconfigs(trace);
  ASSERT_EQ(reconfigs.size(), 1u);
  EXPECT_EQ(reconfigs[0].start_c, 0u);
}

TEST(Export, CsvContainsHeaderAndRows) {
  const SysTrace trace = trace_with_one_reconfig();
  std::ostringstream os;
  write_csv(trace, os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("cycle,time_us,svclvl"), std::string::npos);
  EXPECT_NE(csv.find("interrupted"), std::string::npos);
  // 1 header + 6 rows (one app, six cycles).
  std::size_t lines = 0;
  for (const char c : csv) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 7u);
}

TEST(Export, JsonContainsFramesAndReconfigs) {
  const SysTrace trace = trace_with_one_reconfig();
  std::ostringstream os;
  write_json(trace, os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"frame_length_us\": 1000"), std::string::npos);
  EXPECT_NE(json.find("\"st\": \"interrupted\""), std::string::npos);
  EXPECT_NE(json.find("\"reconfigurations\""), std::string::npos);
  EXPECT_NE(json.find("\"start_c\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"frames\": 4"), std::string::npos);
}

TEST(Export, JsonRendersOffAppAsNull) {
  SysTrace trace(1000);
  SysState s = state(0, ConfigId{1}, {{AppId{1}, ReconfState::kNormal}});
  find_app(s, AppId{1})->spec = std::nullopt;
  trace.append(std::move(s));
  std::ostringstream os;
  write_json(trace, os);
  EXPECT_NE(os.str().find("\"spec\": null"), std::string::npos);
}

TEST(Export, PhaseTableShowsEveryFrame) {
  const SysTrace trace = trace_with_one_reconfig();
  const auto reconfigs = get_reconfigs(trace);
  const std::string table = render_phase_table(trace, reconfigs[0]);
  EXPECT_NE(table.find("config 1 -> 2"), std::string::npos);
  EXPECT_NE(table.find("4 frames"), std::string::npos);
  EXPECT_NE(table.find("a1:interrupted"), std::string::npos);
  EXPECT_NE(table.find("a1:halted"), std::string::npos);
  EXPECT_NE(table.find("a1:prepared"), std::string::npos);
  EXPECT_NE(table.find("a1:normal"), std::string::npos);
}

}  // namespace
}  // namespace arfs::trace
