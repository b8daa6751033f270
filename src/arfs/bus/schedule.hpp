// Static TDMA schedule for the time-triggered bus.
//
// The architecture (paper section 3, Figure 1) assumes an "ultra-dependable,
// real-time data bus", citing the Time-Triggered Architecture. TTA's key
// property is that transmission slots are assigned statically, so message
// latency is bounded by construction. This class is that static assignment: a
// repeating round of slots, each owned by exactly one endpoint.
#pragma once

#include <optional>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"

namespace arfs::bus {

struct Slot {
  EndpointId owner;
  SimDuration length;  ///< Slot duration in simulated microseconds.
};

class TdmaSchedule {
 public:
  TdmaSchedule() = default;

  /// Appends a data slot to the round. Precondition: length > 0.
  void add_slot(EndpointId owner, SimDuration length);

  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }

  /// Total duration of one TDMA round. 0 when the schedule is empty.
  [[nodiscard]] SimDuration round_length() const { return round_length_; }

  /// True if `owner` holds at least one slot.
  [[nodiscard]] bool has_endpoint(EndpointId owner) const;

  /// Earliest instant >= `now` at which `owner` may begin transmitting.
  /// Preconditions: schedule is non-empty and `owner` holds a slot.
  [[nodiscard]] SimTime next_transmit_time(EndpointId owner,
                                           SimTime now) const;

  /// End of the slot that begins at `slot_start` for `owner`. The message is
  /// considered delivered to every receiver at this instant.
  /// Preconditions as for next_transmit_time; `slot_start` must be a start
  /// instant returned by it.
  [[nodiscard]] SimTime delivery_time(EndpointId owner,
                                      SimTime slot_start) const;

  /// Worst-case latency from posting to delivery for `owner`: one full round
  /// (just missed the slot) plus the slot length.
  [[nodiscard]] SimDuration worst_case_latency(EndpointId owner) const;

 private:
  /// Offset of the first slot owned by `owner` within the round, plus its
  /// length; nullopt if the endpoint owns no slot.
  [[nodiscard]] std::optional<Slot> find_slot(EndpointId owner,
                                              SimDuration* offset_out) const;

  std::vector<Slot> slots_;
  SimDuration round_length_ = 0;
};

}  // namespace arfs::bus
