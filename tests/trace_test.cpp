#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

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

// --- the flat trace: frames read back through views ---

/// Frame `cycle` of a hand-built campaign: `rows` apps (AppIds 2, 4, ...),
/// varied states, off apps, and an environment drawn from a short cycle of
/// values, so equal environments recur both on adjacent frames and frames
/// apart.
SysState varied_frame(Cycle cycle, std::size_t rows) {
  SysState s;
  s.cycle = cycle;
  s.time = 500 + static_cast<SimTime>(cycle) * 1000;
  s.svclvl = ConfigId{static_cast<std::uint32_t>(1 + cycle % 3)};
  for (std::size_t i = 0; i < rows; ++i) {
    AppSnapshot snap;
    snap.reconf_st = static_cast<ReconfState>((cycle + i) % 5);
    if ((cycle + i) % 4 != 0) {
      snap.spec = SpecId{static_cast<std::uint32_t>(10 * cycle + i)};
    }
    snap.host_running = (cycle + i) % 3 != 0;
    snap.postcondition_ok = i % 2 == 0;
    snap.transition_ok = cycle % 2 == 0;
    snap.precondition_ok = (cycle + i) % 2 == 1;
    s.apps.emplace_back(AppId{static_cast<std::uint32_t>(2 * i + 2)}, snap);
  }
  static constexpr std::int64_t kLevels[] = {0, 1, 0, 2, 1, 0};
  s.env[FactorId{7}] = kLevels[cycle % 6];
  if (cycle % 5 == 3) s.env[FactorId{9}] = -4;
  return s;
}

std::vector<SysState> varied_frames(Cycle n) {
  std::vector<SysState> frames;
  for (Cycle c = 0; c < n; ++c) {
    frames.push_back(varied_frame(c, static_cast<std::size_t>((c * 7) % 5)));
  }
  return frames;
}

void expect_same_frame(const SysStateView& got, const SysState& want) {
  EXPECT_EQ(got.cycle, want.cycle);
  EXPECT_EQ(got.time, want.time);
  EXPECT_EQ(got.svclvl, want.svclvl);
  EXPECT_EQ(got.env, want.env);
  EXPECT_TRUE(std::ranges::equal(got.apps, want.apps));
}

void expect_trace_holds(const SysTrace& trace,
                        const std::vector<SysState>& frames) {
  ASSERT_EQ(trace.size(), frames.size());
  for (Cycle c = 0; c < frames.size(); ++c) {
    SCOPED_TRACE("cycle " + std::to_string(c));
    expect_same_frame(trace.at(c), frames[c]);
  }
}

TEST(FlatTrace, HandBuiltFramesReadBackUnchanged) {
  const std::vector<SysState> frames = varied_frames(40);
  SysTrace trace(1000);
  for (const SysState& frame : frames) trace.append(frame);
  expect_trace_holds(trace, frames);
  // Row counts vary, including frames with no rows at all.
  EXPECT_TRUE(trace.at(0).apps.empty());
  EXPECT_EQ(trace.at(2).apps.size(), 4u);
  // A kept copy of a view equals the frame it viewed.
  for (Cycle c = 0; c < frames.size(); ++c) {
    expect_same_frame(SysState(trace.at(c)), frames[c]);
  }
}

TEST(FlatTrace, CopiesAndAssignmentsReadBackUnchanged) {
  const std::vector<SysState> frames = varied_frames(40);
  SysTrace full(1000);
  for (const SysState& frame : frames) full.append(frame);
  SysTrace shorter(1000);
  for (Cycle c = 0; c < 9; ++c) shorter.append(frames[c]);

  const SysTrace copy(full);
  expect_trace_holds(copy, frames);

  // Assigning a shorter trace over a longer one (a checkpoint restore), then
  // recording on: the spare environments left behind must not leak into
  // the frames that follow.
  SysTrace warm(full);
  warm = shorter;
  expect_trace_holds(warm, {frames.begin(), frames.begin() + 9});
  std::vector<SysState> replayed(frames.begin(), frames.begin() + 9);
  for (Cycle c = 9; c < 30; ++c) {
    SysState frame = varied_frame(c, static_cast<std::size_t>(c % 3));
    frame.env[FactorId{11}] = static_cast<std::int64_t>(c / 4);
    warm.append(frame);
    replayed.push_back(std::move(frame));
  }
  expect_trace_holds(warm, replayed);

  SysTrace moved(std::move(warm));
  expect_trace_holds(moved, replayed);
  moved = full;
  expect_trace_holds(moved, frames);
}

}  // namespace
}  // namespace arfs::trace
