// SysTrace: the recorded function cycle -> sys_state.
//
// The model's sys_trace couples the trace function `tr` with the
// reconfiguration specification `sp` and the environment trace `env`; here
// the recorder stores the per-cycle states and the frame length needed to
// convert frame counts into the real-time quantities SP3 compares against.
//
// Storage is flat: one header per frame, one contiguous array of every
// frame's application rows, and the distinct environment states (a frame
// whose environment equals the previous frame's shares its entry). Reading
// a frame hands out a SysStateView into that storage, so recording a frame
// allocates only when one of the vectors grows, and a copy or a restore
// moves three vectors rather than one heap block per frame.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/common/types.hpp"
#include "arfs/trace/state.hpp"

namespace arfs::trace {

class SysTrace {
 public:
  /// `frame_length` is the global real-time frame length (cycle_time in the
  /// model). Precondition: positive.
  explicit SysTrace(SimDuration frame_length);
  SysTrace(const SysTrace& other);
  SysTrace(SysTrace&& other) noexcept;
  /// Keeps this trace's spare environment entries, so a warm trace assigned
  /// a shorter one (a checkpoint restore) records its next environments
  /// into existing maps rather than new ones; a copy refreshed from a trace
  /// one frame longer each time grows its vectors geometrically.
  SysTrace& operator=(const SysTrace& other);
  SysTrace& operator=(SysTrace&& other) noexcept;

  /// Appends a hand-built snapshot as the next cycle. Cycles must be
  /// recorded contiguously starting at 0, rows sorted by AppId.
  void append(const SysState& state);

  /// Appends the header of frame `cycle` and `rows` default rows, and
  /// returns those rows for the caller to fill in place, sorted by AppId.
  /// Views taken earlier become invalid.
  std::span<AppRow> append_frame(Cycle cycle, SimTime time, ConfigId svclvl,
                                 const env::EnvState& env, std::size_t rows);

  /// Frame `cycle`, valid until the next append. Inline: the checkers and
  /// exporters call it once per frame.
  [[nodiscard]] SysStateView at(Cycle cycle) const {
    require(cycle < frames_.size(), "cycle beyond recorded trace");
    const Frame& frame = frames_[static_cast<std::size_t>(cycle)];
    return {cycle, frame.time, frame.svclvl,
            std::span<const AppRow>(rows_.data() + frame.first_row,
                                    frame.rows),
            envs_[frame.env]};
  }
  [[nodiscard]] std::size_t size() const { return frames_.size(); }
  [[nodiscard]] bool empty() const { return frames_.empty(); }
  [[nodiscard]] SimDuration frame_length() const { return frame_length_; }

 private:
  struct Frame {
    SimTime time = 0;
    ConfigId svclvl{};
    std::uint32_t env = 0;   ///< Index into envs_.
    std::uint32_t rows = 0;  ///< Row count, starting at first_row.
    std::size_t first_row = 0;
  };

  SimDuration frame_length_;
  std::vector<Frame> frames_;
  std::vector<AppRow> rows_;
  /// Distinct consecutive environments; entries past env_count_ are spares
  /// kept by operator= for reuse.
  std::vector<env::EnvState> envs_;
  std::size_t env_count_ = 0;
};

}  // namespace arfs::trace
