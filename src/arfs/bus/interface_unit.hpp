// Sensor/actuator interface units.
//
// Paper section 3: "Sensors and actuators ... are connected to the data bus
// via interface units that employ the communications protocol required by the
// data bus." A SensorUnit samples a physical quantity each frame and
// broadcasts it on a topic; an ActuatorUnit receives commands from a topic
// and applies them to a physical device. Both are simulation adapters: the
// physical side is a std::function supplied by the scenario.
#pragma once

#include <functional>
#include <string>
#include <utility>

#include "arfs/bus/bus.hpp"
#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/storage/value.hpp"

namespace arfs::bus {

class SensorUnit {
 public:
  using Sample = std::function<storage::Value(SimTime)>;

  /// `endpoint` must own a slot in the bus schedule.
  SensorUnit(EndpointId endpoint, std::string topic, Sample sample)
      : endpoint_(endpoint), topic_(std::move(topic)),
        sample_(std::move(sample)) {}

  /// Samples the physical quantity and posts the reading. Call once per
  /// frame from the platform loop.
  void poll(Bus& bus, SimTime now);

  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] const std::string& topic() const { return topic_; }

  /// A failed sensor stops posting; failure is visible to activity monitors
  /// as silence on the topic.
  void fail() { failed_ = true; }
  void repair() { failed_ = false; }
  [[nodiscard]] bool failed() const { return failed_; }

 private:
  EndpointId endpoint_;
  std::string topic_;
  Sample sample_;
  bool failed_ = false;
};

class ActuatorUnit {
 public:
  using Apply = std::function<void(const storage::Value&, SimTime)>;

  ActuatorUnit(EndpointId endpoint, std::string topic, Apply apply)
      : endpoint_(endpoint), topic_(std::move(topic)),
        apply_(std::move(apply)) {}

  /// Drains the endpoint's mailbox and applies every command on the topic.
  /// Call once per frame after Bus::deliver_until.
  void poll(Bus& bus, SimTime now);

  [[nodiscard]] EndpointId endpoint() const { return endpoint_; }
  [[nodiscard]] const std::string& topic() const { return topic_; }

 private:
  EndpointId endpoint_;
  std::string topic_;
  Apply apply_;
};

}  // namespace arfs::bus
