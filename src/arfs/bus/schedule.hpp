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

/// What a slot carries. Data slots are the classic TTA message slots.
/// Quorum-ship slots carry journal-record batches (storage::durable
/// shipping) to one member of a replica cohort under an explicit per-slot
/// byte budget, so replication traffic is schedulable bandwidth like
/// everything else on the bus and can never crowd out control messages.
/// The fan-out to N replicas is N statically scheduled slots, not one slot
/// shared N ways.
enum class SlotKind : std::uint8_t { kData, kQuorumShip };

struct Slot {
  EndpointId owner;
  SimDuration length;  ///< Slot duration in simulated microseconds.
  SlotKind kind = SlotKind::kData;
  /// Quorum-ship slots: bytes one round may carry (partial batches resume
  /// next round). 0 for data slots.
  std::uint32_t byte_budget = 0;
  /// Quorum-ship slots: which cohort member this slot feeds. 0 otherwise.
  std::uint32_t member = 0;
};

class TdmaSchedule {
 public:
  TdmaSchedule() = default;

  /// Appends a data slot to the round. Precondition: length > 0.
  void add_slot(EndpointId owner, SimDuration length);

  /// Appends a quorum-ship slot feeding cohort member `member` of `owner`'s
  /// replica group. Preconditions: length > 0, byte_budget > 0.
  void add_quorum_slot(EndpointId owner, std::uint32_t member,
                       SimDuration length, std::uint32_t byte_budget);

  /// Byte budget of `owner`'s quorum-ship slot for `member`; 0 when it
  /// holds none.
  [[nodiscard]] std::uint32_t quorum_budget(EndpointId owner,
                                            std::uint32_t member) const;

  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }
  [[nodiscard]] const std::vector<Slot>& slots() const { return slots_; }

  /// Total duration of one TDMA round. 0 when the schedule is empty.
  [[nodiscard]] SimDuration round_length() const { return round_length_; }

  /// True if `owner` holds at least one *data* slot (message transmission;
  /// quorum-ship slots carry no messages).
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
  /// Offset of the first *data* slot owned by `owner` within the round,
  /// plus its length; nullopt if the endpoint owns no data slot. Message
  /// timing never resolves to a quorum-ship slot.
  [[nodiscard]] std::optional<Slot> find_slot(EndpointId owner,
                                              SimDuration* offset_out) const;

  std::vector<Slot> slots_;
  SimDuration round_length_ = 0;
};

}  // namespace arfs::bus
