// Aircraft state sensors with deterministic noise.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arfs/avionics/aircraft.hpp"
#include "arfs/common/rng.hpp"

namespace arfs::avionics {

struct SensorNoise {
  double altimeter_sigma_ft = 4.0;
  double compass_sigma_deg = 0.5;
  double airspeed_sigma_kt = 1.0;
};

struct SensorReadings {
  double altitude_ft = 0.0;
  double heading_deg = 0.0;
  double airspeed_kt = 0.0;
};

class SensorSuite {
 public:
  SensorSuite(SensorNoise noise, std::uint64_t seed)
      : noise_(noise), rng_(seed) {}

  /// Samples every sensor against the true state.
  [[nodiscard]] SensorReadings sample(const AircraftState& truth);

  void fail_altimeter() { altimeter_failed_ = true; }
  [[nodiscard]] bool altimeter_failed() const { return altimeter_failed_; }

  /// Checkpoint support: the suite's mutable state (noise RNG stream,
  /// failure latch, altimeter hold value) as 64-bit words.
  void save_state(std::vector<std::uint64_t>& out) const;
  void load_state(const std::vector<std::uint64_t>& in, std::size_t& pos);

 private:
  SensorNoise noise_;
  Rng rng_;
  bool altimeter_failed_ = false;
  double last_altitude_ = 0.0;
};

/// The physical plant shared by the avionics applications: dynamics, control
/// surfaces (written by the FCS), sensor readings and the pilot's stick
/// input, which the applications reach directly, not through interface units.
class UavPlant {
 public:
  UavPlant(std::uint64_t seed = 42, DynamicsParams params = {},
           AircraftState initial = {});

  /// Advances physics by `dt_s` and refreshes the sensor snapshot.
  void step(double dt_s);

  [[nodiscard]] const AircraftState& truth() const { return dyn_.state(); }
  [[nodiscard]] const SensorReadings& readings() const { return readings_; }

  [[nodiscard]] ControlSurfaces& surfaces() { return surfaces_; }
  [[nodiscard]] const ControlSurfaces& surfaces() const { return surfaces_; }

  /// Pilot stick input in [-1, 1] (used by the FCS when the autopilot is
  /// disengaged or off).
  double pilot_pitch = 0.0;
  double pilot_roll = 0.0;

  [[nodiscard]] SensorSuite& sensors() { return sensors_; }

  /// Installs turbulence on the underlying dynamics.
  void set_wind(WindModel wind) { dyn_.set_wind(wind); }

  /// Checkpoint support: appends / reads back the plant's full mutable
  /// state (dynamics, wind phase, surfaces, sensors, last sample, stick) as
  /// 64-bit words. Applications sharing one plant each save it; restoring
  /// the same instant twice is idempotent.
  void save_state(std::vector<std::uint64_t>& out) const;
  void load_state(const std::vector<std::uint64_t>& in, std::size_t& pos);

 private:
  AircraftDynamics dyn_;
  ControlSurfaces surfaces_;
  SensorSuite sensors_;
  SensorReadings readings_;
};

}  // namespace arfs::avionics
