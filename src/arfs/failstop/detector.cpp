#include "arfs/failstop/detector.hpp"

#include <utility>

#include "arfs/common/check.hpp"

namespace arfs::failstop {

void DetectorBank::raise(FailureSignal signal) {
  pending_.push_back(std::move(signal));
  ++total_;
}

std::vector<FailureSignal> DetectorBank::drain() {
  std::vector<FailureSignal> out;
  drain_into(out);
  return out;
}

void DetectorBank::drain_into(std::vector<FailureSignal>& out) {
  out.clear();
  out.swap(pending_);
}

ActivityMonitor::ActivityMonitor(Cycle miss_threshold)
    : miss_threshold_(miss_threshold) {
  require(miss_threshold >= 1, "miss threshold must be at least one frame");
}

void ActivityMonitor::watch(ProcessorId processor) {
  if (watches_.size() <= processor.value()) {
    watches_.resize(processor.value() + 1);
  }
  watches_[processor.value()].watched = true;
}

void ActivityMonitor::heartbeat(ProcessorId processor) {
  require(processor.value() < watches_.size() &&
              watches_[processor.value()].watched,
          "heartbeat from unwatched processor");
  watches_[processor.value()].beat_this_frame = true;
}

void ActivityMonitor::end_of_frame(Cycle cycle, SimTime now,
                                   DetectorBank& bank) {
  for (std::uint32_t id = 0; id < watches_.size(); ++id) {
    Watch& watch = watches_[id];
    if (!watch.watched) continue;
    if (watch.beat_this_frame) {
      watch.beat_this_frame = false;
      watch.misses = 0;
      watch.reported = false;
      continue;
    }
    ++watch.misses;
    if (watch.misses >= miss_threshold_ && !watch.reported) {
      watch.reported = true;
      FailureSignal s;
      s.at = now;
      s.cycle = cycle;
      s.kind = SignalKind::kProcessorFailure;
      s.processor = ProcessorId{id};
      s.detail = "activity monitor: " + std::to_string(watch.misses) +
                 " silent frames";
      bank.raise(std::move(s));
    }
  }
}

void TimingMonitor::report_overrun(AppId app, Cycle cycle, SimTime now,
                                   DetectorBank& bank,
                                   const std::string& detail) {
  FailureSignal s;
  s.at = now;
  s.cycle = cycle;
  s.kind = SignalKind::kTimingViolation;
  s.app = app;
  s.detail = detail.empty() ? "frame budget overrun" : detail;
  bank.raise(std::move(s));
}

void SignalMonitor::report_fault(AppId app, Cycle cycle, SimTime now,
                                 DetectorBank& bank,
                                 const std::string& detail) {
  FailureSignal s;
  s.at = now;
  s.cycle = cycle;
  s.kind = SignalKind::kSoftwareFailure;
  s.app = app;
  s.detail = detail.empty() ? "application fault signal" : detail;
  bank.raise(std::move(s));
}

std::string to_string(SignalKind kind) {
  switch (kind) {
    case SignalKind::kProcessorFailure: return "processor-failure";
    case SignalKind::kTimingViolation:  return "timing-violation";
    case SignalKind::kSoftwareFailure:  return "software-failure";
    case SignalKind::kLossyRecovery:    return "lossy-recovery";
    case SignalKind::kQuorumLost:       return "quorum-lost";
    case SignalKind::kQuorumDurable:    return "quorum-durable";
  }
  return "?";
}

}  // namespace arfs::failstop
