// Platform substrate integration: the layers below the SCRAM in Figure 1,
// composed without the reconfiguration machinery.
//
// Demonstrates: deriving ARINC 653 partition schedules from the avionics
// configurations (analysis::build_schedule), activating each frame's
// windows in schedule order over fail-stop processors, moving sensor
// samples and actuator commands across the TDMA bus, and watching the
// activity monitor detect a processor fail-stop.
//
// Run: build/examples/arinc_platform

#include <algorithm>
#include <iostream>
#include <vector>

#include "arfs/analysis/schedulability.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/bus/bus.hpp"
#include "arfs/sim/clock.hpp"

int main() {
  using namespace arfs;
  using namespace arfs::avionics;

  const SimDuration frame_us = 20'000;  // 20 ms major frame
  const core::ReconfigSpec spec = make_uav_spec();

  // 1. Schedulability: every configuration must fit its processors' frames.
  std::cout << "schedulability of the avionics configurations:\n";
  for (const analysis::ScheduleFinding& f :
       analysis::check_schedulability(spec, frame_us)) {
    std::cout << "  config " << f.config.value() << " processor "
              << f.processor.value() << ": " << f.load << "/"
              << f.frame_length << " us "
              << (f.feasible ? "(fits)" : "(OVERLOAD)") << "\n";
  }

  // 2. Build the Full Service schedule. Each frame activates its windows
  //    in schedule order, one unit of work per partition (section 6.1).
  const analysis::BuiltSchedule built =
      analysis::build_schedule(spec, kFullService, frame_us);
  const std::vector<rtos::Window> windows = built.table.activation_order();
  const PartitionId autopilot = built.partitions.at(kAutopilot);

  failstop::ProcessorGroup group;
  group.add_processor(kComputer1);
  group.add_processor(kComputer2);
  failstop::DetectorBank bank;
  failstop::ActivityMonitor activity(1);
  group.watch_all(activity);

  // 3. TDMA bus with one slot per endpoint: altimeter sensor, flight-control
  //    partition, elevator actuator.
  const EndpointId kAltimeterEp{1};
  const EndpointId kFcsEp{2};
  const EndpointId kElevatorEp{3};
  bus::TdmaSchedule tdma;
  tdma.add_slot(kAltimeterEp, 500);
  tdma.add_slot(kFcsEp, 500);
  tdma.add_slot(kElevatorEp, 500);
  bus::Bus the_bus(tdma);
  the_bus.register_endpoint(kAltimeterEp);
  the_bus.register_endpoint(kFcsEp);
  the_bus.register_endpoint(kElevatorEp);
  std::cout << "\nTDMA round: " << tdma.round_length()
            << " us; worst-case latency (fcs endpoint): "
            << tdma.worst_case_latency(kFcsEp) << " us\n";

  UavPlant plant(7);
  double latest_altitude = plant.readings().altitude_ft;
  double pitch_cmd = 0.0;
  sim::VirtualClock clock(frame_us);

  // 4. Drive 250 frames (5 s); fail computer 2 at frame 150 and watch the
  //    activity monitor raise the abstract failure signal the SCRAM would
  //    consume.
  for (Cycle frame = 0; frame < 250; ++frame) {
    const SimTime t0 = clock.now();
    if (frame == 150) {
      group.processor(kComputer2).fail(frame);
      std::cout << "\nframe 150: computer 2 fail-stopped\n";
    }

    the_bus.post(kAltimeterEp, "altitude", plant.readings().altitude_ft, t0);
    the_bus.deliver_until(t0 + tdma.round_length());
    for (const bus::Message& m : the_bus.collect(kFcsEp)) {
      if (m.topic == "altitude") latest_altitude = std::get<double>(m.payload);
    }

    group.heartbeat_all(activity);
    activity.end_of_frame(frame, t0, bank);
    for (const failstop::FailureSignal& s : bank.drain()) {
      std::cout << "  detector: " << failstop::to_string(s.kind)
                << " processor " << s.processor.value() << " at cycle "
                << s.cycle << " (" << s.detail << ")\n";
    }

    // Partition bodies, in window order: the autopilot partition computes
    // a crude altitude-hold command from the latest bus sample; the FCS
    // partition forwards it to the actuator topic. A window whose processor
    // has fail-stopped does no work.
    std::size_t activated = 0;
    std::size_t skipped = 0;
    for (const rtos::Window& w : windows) {
      if (!group.processor(w.processor).running()) {
        ++skipped;
        continue;
      }
      ++activated;
      if (w.partition == autopilot) {
        pitch_cmd =
            std::clamp((5400.0 - latest_altitude) / 800.0, -1.0, 1.0);
      } else {
        the_bus.post(kFcsEp, "elevator_cmd", pitch_cmd, t0);
      }
    }
    if (frame == 151) {
      std::cout << "  frame 151: " << activated << " activated, " << skipped
                << " skipped (fcs partition lost)\n";
    }

    the_bus.deliver_until(t0 + frame_us);
    for (const bus::Message& m : the_bus.collect(kElevatorEp)) {
      if (m.topic == "elevator_cmd") {
        plant.surfaces().elevator = std::get<double>(m.payload);
      }
    }
    plant.step(static_cast<double>(frame_us) / 1e6);
    clock.advance_frame();
  }

  std::cout << "\nafter 5 s: altitude " << plant.truth().altitude_ft
            << " ft (altitude-hold target 5400)\n";
  std::cout << "bus: " << the_bus.stats().posted << " posted, "
            << the_bus.stats().delivered << " delivered, worst latency "
            << the_bus.stats().worst_latency << " us\n";
  return 0;
}
