#include "arfs/props/online.hpp"

#include <algorithm>
#include <span>

#include "arfs/common/check.hpp"

namespace arfs::props {

OnlineMonitor::OnlineMonitor(const core::ReconfigSpec& spec,
                             SimDuration frame_length)
    : spec_(spec), frame_length_(frame_length) {
  require(frame_length > 0, "frame length must be positive");
}

std::optional<ReconfigVerdict> OnlineMonitor::observe(
    const trace::SysStateView& state) {
  if (expected_cycle_.has_value()) {
    require(state.cycle == *expected_cycle_,
            "online monitor requires contiguous frames");
  }
  expected_cycle_ = state.cycle + 1;
  ++stats_.frames_observed;

  const bool normal = trace::all_normal(state);

  if (buffer_.empty()) {
    if (normal) {
      keep_normal(state);
      return std::nullopt;
    }
    // A reconfiguration interval opens at this frame.
    buffer_.emplace_back(state);
    return std::nullopt;
  }

  buffer_.emplace_back(state);
  stats_.max_buffered_frames =
      std::max(stats_.max_buffered_frames, buffer_.size());
  if (!normal) return std::nullopt;

  // Interval closed: rebase the buffered frames (the checkers only use
  // relative positions and state content) into a miniature trace whose
  // cycle 0 is the pre-interval all-normal frame.
  trace::SysTrace mini(frame_length_);
  Cycle next = 0;
  const auto add = [&mini, &next](const trace::SysState& frame) {
    const std::span<trace::AppRow> rows = mini.append_frame(
        next++, frame.time, frame.svclvl, frame.env, frame.apps.size());
    std::copy(frame.apps.begin(), frame.apps.end(), rows.begin());
  };
  const bool have_prelude = last_normal_.has_value();
  if (have_prelude) add(*last_normal_);
  for (const trace::SysState& buffered : buffer_) add(buffered);

  trace::Reconfiguration r;
  r.start_c = have_prelude ? 1 : 0;
  r.end_c = next - 1;
  r.from = mini.at(r.start_c).svclvl;
  r.to = mini.at(r.end_c).svclvl;

  ReconfigVerdict verdict = check_all(mini, r, spec_);
  // Restore the real-world cycle numbers in the reported interval.
  const Cycle base = buffer_.front().cycle;
  verdict.reconfig.start_c = base;
  verdict.reconfig.end_c = state.cycle;

  ++stats_.reconfigs_checked;
  if (!verdict.all_hold()) ++stats_.violations;

  buffer_.clear();
  keep_normal(state);
  return verdict;
}

void OnlineMonitor::keep_normal(const trace::SysStateView& state) {
  if (!last_normal_.has_value()) last_normal_.emplace();
  last_normal_->assign(state);
}

}  // namespace arfs::props
