// Online property monitoring.
//
// The offline checkers need the whole recorded trace; a deployed system
// running for days cannot keep one. OnlineMonitor consumes end-of-frame
// states as they are produced, buffering only the frames of the
// reconfiguration in progress (plus the preceding all-normal frame), and
// emits an SP1-SP4 verdict the moment each reconfiguration completes.
// Memory is bounded by the longest reconfiguration, i.e. by max T.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arfs/props/properties.hpp"

namespace arfs::props {

struct OnlineStats {
  std::uint64_t frames_observed = 0;
  std::uint64_t reconfigs_checked = 0;
  std::uint64_t violations = 0;
  std::size_t max_buffered_frames = 0;
};

class OnlineMonitor {
 public:
  /// `spec` must outlive the monitor; `frame_length` is the system's frame
  /// length (for SP3's time conversion).
  OnlineMonitor(const core::ReconfigSpec& spec, SimDuration frame_length);

  /// Feeds the end-of-frame state for the next cycle (must be contiguous).
  /// Returns a verdict exactly when a reconfiguration completed at this
  /// frame. The monitor copies what it keeps, so `state` may be a view
  /// into a trace that the next frame appends to.
  std::optional<ReconfigVerdict> observe(const trace::SysStateView& state);

  [[nodiscard]] const OnlineStats& stats() const { return stats_; }
  [[nodiscard]] bool reconfiguring() const { return !buffer_.empty(); }

 private:
  /// Copies `state` into last_normal_, reusing its storage.
  void keep_normal(const trace::SysStateView& state);

  const core::ReconfigSpec& spec_;
  SimDuration frame_length_;
  std::optional<trace::SysState> last_normal_;
  std::vector<trace::SysState> buffer_;  ///< Frames of the open interval.
  std::optional<Cycle> expected_cycle_;
  OnlineStats stats_;
};

}  // namespace arfs::props
