#include "arfs/bus/interface_unit.hpp"

namespace arfs::bus {

void SensorUnit::poll(Bus& bus, SimTime now) {
  if (failed_) return;
  bus.post(endpoint_, topic_, sample_(now), now);
}

void ActuatorUnit::poll(Bus& bus, SimTime now) {
  for (const Message& msg : bus.collect(endpoint_)) {
    if (msg.topic == topic_) apply_(msg.payload, now);
  }
}

}  // namespace arfs::bus
