#include "arfs/trace/recorder.hpp"

#include <algorithm>
#include <utility>

#include "arfs/common/assign.hpp"

namespace arfs::trace {

SysTrace::SysTrace(SimDuration frame_length) : frame_length_(frame_length) {
  require(frame_length > 0, "frame length must be positive");
}

SysTrace::SysTrace(const SysTrace& other)
    : frame_length_(other.frame_length_), frames_(other.frames_),
      rows_(other.rows_),
      envs_(other.envs_.begin(),
            other.envs_.begin() +
                static_cast<std::ptrdiff_t>(other.env_count_)),
      env_count_(other.env_count_) {}

SysTrace::SysTrace(SysTrace&& other) noexcept
    : frame_length_(other.frame_length_), frames_(std::move(other.frames_)),
      rows_(std::move(other.rows_)), envs_(std::move(other.envs_)),
      env_count_(std::exchange(other.env_count_, 0)) {}

SysTrace& SysTrace::operator=(SysTrace&& other) noexcept {
  frame_length_ = other.frame_length_;
  frames_ = std::move(other.frames_);
  rows_ = std::move(other.rows_);
  envs_ = std::move(other.envs_);
  env_count_ = std::exchange(other.env_count_, 0);
  return *this;
}

SysTrace& SysTrace::operator=(const SysTrace& other) {
  if (this == &other) return *this;
  frame_length_ = other.frame_length_;
  assign_amortized(frames_, other.frames_);
  assign_amortized(rows_, other.rows_);
  if (envs_.size() < other.env_count_) envs_.resize(other.env_count_);
  std::copy_n(other.envs_.begin(), other.env_count_, envs_.begin());
  env_count_ = other.env_count_;
  return *this;
}

void SysTrace::append(const SysState& state) {
  const std::span<AppRow> rows = append_frame(
      state.cycle, state.time, state.svclvl, state.env, state.apps.size());
  std::copy(state.apps.begin(), state.apps.end(), rows.begin());
}

std::span<AppRow> SysTrace::append_frame(Cycle cycle, SimTime time,
                                         ConfigId svclvl,
                                         const env::EnvState& env,
                                         std::size_t rows) {
  require(cycle == frames_.size(), "trace cycles must be contiguous from 0");
  if (env_count_ == 0 || envs_[env_count_ - 1] != env) {
    if (env_count_ < envs_.size()) {
      envs_[env_count_] = env;
    } else {
      envs_.push_back(env);
    }
    ++env_count_;
  }
  Frame frame;
  frame.time = time;
  frame.svclvl = svclvl;
  frame.env = static_cast<std::uint32_t>(env_count_ - 1);
  frame.rows = static_cast<std::uint32_t>(rows);
  frame.first_row = rows_.size();
  frames_.push_back(frame);
  rows_.resize(rows_.size() + rows);
  return {rows_.data() + frame.first_row, rows};
}

}  // namespace arfs::trace
