// Failure detection.
//
// Paper section 3: "Component failures are detected by conventional means
// such as activity, timing, and signal monitors. A detected component failure
// is communicated to the SCRAM via an abstract signal."
//
// Three monitor kinds are provided:
//  * ActivityMonitor — expects a heartbeat from each processor every frame;
//    after `miss_threshold` consecutive silent frames it raises a signal.
//    Detection latency is therefore bounded and configurable.
//  * TimingMonitor — raised synchronously when an application exceeds its
//    frame budget (fed by the RTOS health monitor).
//  * SignalMonitor — forwards explicit software fault signals.
//
// All monitors deposit FailureSignal records into a DetectorBank that the
// SCRAM drains once per frame.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"

namespace arfs::failstop {

enum class SignalKind {
  kProcessorFailure,
  kTimingViolation,
  kSoftwareFailure,
  /// A fail-stop recovery lost state the processor had committed: the
  /// journal tail was torn/corrupt or group-commit lag discarded whole
  /// frame commits. The store is consistent but *older* than what the
  /// applications last observed, so silent resume would violate their
  /// precondition; the SCRAM may force a re-initialization instead.
  kLossyRecovery,
  /// A processor's quorum replica cohort lost its live majority: commits
  /// can still be journaled locally but are no longer acknowledged-by-
  /// majority, so a relocation right now could only warm-start from a
  /// minority member. Paired with kQuorumDurable.
  kQuorumLost,
  /// The cohort regained its live majority: the majority-ack durability
  /// boundary is advancing again.
  kQuorumDurable,
};

struct FailureSignal {
  SimTime at = 0;
  Cycle cycle = 0;
  SignalKind kind = SignalKind::kProcessorFailure;
  ProcessorId processor{};
  AppId app{};
  std::string detail;
};

/// Shared sink for all monitors; drained by the SCRAM each frame.
class DetectorBank {
 public:
  void raise(FailureSignal signal);

  /// Removes and returns all pending signals, in raise order.
  [[nodiscard]] std::vector<FailureSignal> drain();
  /// Moves all pending signals into `out` (cleared first), in raise order.
  /// The two buffers trade places, so a caller that drains every frame into
  /// the same vector allocates nothing in steady state.
  void drain_into(std::vector<FailureSignal>& out);

  [[nodiscard]] std::size_t pending() const { return pending_.size(); }
  [[nodiscard]] std::uint64_t total_raised() const { return total_; }

 private:
  std::vector<FailureSignal> pending_;
  std::uint64_t total_ = 0;
};

class ActivityMonitor {
 public:
  /// `miss_threshold` >= 1: consecutive silent frames before detection.
  explicit ActivityMonitor(Cycle miss_threshold);

  /// Registers a processor to be watched.
  void watch(ProcessorId processor);

  /// Records a heartbeat from `processor` during the current frame.
  void heartbeat(ProcessorId processor);

  /// Closes the current frame: every watched processor that did not
  /// heartbeat accumulates a miss; crossing the threshold raises exactly one
  /// signal (re-raised only after the processor resumes heartbeating and
  /// goes silent again).
  void end_of_frame(Cycle cycle, SimTime now, DetectorBank& bank);

  [[nodiscard]] Cycle miss_threshold() const { return miss_threshold_; }

 private:
  struct Watch {
    Cycle misses = 0;
    bool watched = false;
    bool beat_this_frame = false;
    bool reported = false;
  };
  Cycle miss_threshold_;
  /// Indexed by ProcessorId value, so end_of_frame walks ascending ids.
  std::vector<Watch> watches_;
};

class TimingMonitor {
 public:
  /// Reports that `app` overran its budget during `cycle`.
  void report_overrun(AppId app, Cycle cycle, SimTime now, DetectorBank& bank,
                      const std::string& detail = {});
};

class SignalMonitor {
 public:
  /// Forwards an explicit application fault signal.
  void report_fault(AppId app, Cycle cycle, SimTime now, DetectorBank& bank,
                    const std::string& detail = {});
};

[[nodiscard]] std::string to_string(SignalKind kind);

}  // namespace arfs::failstop
