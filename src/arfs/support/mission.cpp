#include "arfs/support/mission.hpp"

#include <utility>

#include "arfs/common/check.hpp"

namespace arfs::support {

MissionProfile::MissionProfile(SimDuration frame_length)
    : frame_length_(frame_length) {
  require(frame_length > 0, "frame length must be positive");
}

void MissionProfile::add(Cycle frame, sim::FaultEvent proto) {
  if (jitter_on_ && jitter_frames_ > 0) {
    Rng rng(jitter_state_++);
    frame += rng.uniform(0, jitter_frames_);
  }
  proto.when = static_cast<SimTime>(frame) * frame_length_;
  events_.push_back(Event{frame, std::move(proto)});
}

MissionProfile& MissionProfile::at(Cycle frame, FactorId factor,
                                   std::int64_t value, std::string note) {
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kEnvironmentChange;
  e.factor = factor;
  e.new_value = value;
  e.note = std::move(note);
  add(frame, std::move(e));
  return *this;
}

MissionProfile& MissionProfile::fail(Cycle frame, ProcessorId processor,
                                     std::string note) {
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kProcessorFailStop;
  e.processor = processor;
  e.note = std::move(note);
  add(frame, std::move(e));
  return *this;
}

MissionProfile& MissionProfile::repair(Cycle frame, ProcessorId processor,
                                       std::string note) {
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kProcessorRepair;
  e.processor = processor;
  e.note = std::move(note);
  add(frame, std::move(e));
  return *this;
}

MissionProfile& MissionProfile::journal_sync_fail(Cycle frame,
                                                  ProcessorId processor,
                                                  std::string note) {
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kJournalSyncFail;
  e.processor = processor;
  e.note = std::move(note);
  add(frame, std::move(e));
  return *this;
}

MissionProfile& MissionProfile::journal_torn_write(Cycle frame,
                                                   ProcessorId processor,
                                                   std::int64_t keep_bytes,
                                                   std::string note) {
  require(keep_bytes >= 0, "torn-write keep bytes cannot be negative");
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kJournalTornWrite;
  e.processor = processor;
  e.new_value = keep_bytes;
  e.note = std::move(note);
  add(frame, std::move(e));
  return *this;
}

MissionProfile& MissionProfile::journal_bit_flip(Cycle frame,
                                                 ProcessorId processor,
                                                 std::int64_t seed,
                                                 std::string note) {
  sim::FaultEvent e;
  e.kind = sim::FaultKind::kJournalBitFlip;
  e.processor = processor;
  e.new_value = seed;
  e.note = std::move(note);
  add(frame, std::move(e));
  return *this;
}

MissionProfile& MissionProfile::periodic(FactorId factor, std::int64_t low,
                                         std::int64_t high, Cycle period,
                                         Cycle duty, Cycle phase,
                                         Cycle until) {
  require(period > 0 && duty < period, "need duty < period, period > 0");
  for (Cycle start = phase; start < until; start += period) {
    at(start, factor, high, "periodic-high");
    if (start + duty < until) {
      at(start + duty, factor, low, "periodic-low");
    }
  }
  return *this;
}

MissionProfile& MissionProfile::with_jitter(Cycle max_frames,
                                            std::uint64_t seed) {
  jitter_frames_ = max_frames;
  jitter_state_ = seed;
  jitter_on_ = true;
  return *this;
}

sim::FaultPlan MissionProfile::build() const {
  sim::FaultPlan plan;
  plan.reserve(events_.size());
  for (const Event& event : events_) {
    plan.add(event.proto);
  }
  return plan;
}

}  // namespace arfs::support
