#include "arfs/bus/schedule.hpp"

#include "arfs/common/check.hpp"

namespace arfs::bus {

void TdmaSchedule::add_slot(EndpointId owner, SimDuration length) {
  require(length > 0, "TDMA slot length must be positive");
  slots_.push_back(Slot{owner, length});
  round_length_ += length;
}

bool TdmaSchedule::has_endpoint(EndpointId owner) const {
  SimDuration unused = 0;
  return find_slot(owner, &unused).has_value();
}

std::optional<Slot> TdmaSchedule::find_slot(EndpointId owner,
                                            SimDuration* offset_out) const {
  SimDuration offset = 0;
  for (const Slot& slot : slots_) {
    if (slot.owner == owner) {
      *offset_out = offset;
      return slot;
    }
    offset += slot.length;
  }
  return std::nullopt;
}

SimTime TdmaSchedule::next_transmit_time(EndpointId owner, SimTime now) const {
  require(round_length_ > 0, "TDMA schedule is empty");
  SimDuration offset = 0;
  const std::optional<Slot> slot = find_slot(owner, &offset);
  require(slot.has_value(), "endpoint owns no TDMA slot");

  const SimTime round_start = (now / round_length_) * round_length_;
  SimTime candidate = round_start + offset;
  if (candidate < now) candidate += round_length_;
  return candidate;
}

SimTime TdmaSchedule::delivery_time(EndpointId owner,
                                    SimTime slot_start) const {
  SimDuration offset = 0;
  const std::optional<Slot> slot = find_slot(owner, &offset);
  require(slot.has_value(), "endpoint owns no TDMA slot");
  return slot_start + slot->length;
}

SimDuration TdmaSchedule::worst_case_latency(EndpointId owner) const {
  SimDuration offset = 0;
  const std::optional<Slot> slot = find_slot(owner, &offset);
  require(slot.has_value(), "endpoint owns no TDMA slot");
  return round_length_ + slot->length;
}

}  // namespace arfs::bus
