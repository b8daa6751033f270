// Environmental factors and virtual monitor applications.
//
// Paper section 6.3: "Any environmental factor whose change could
// necessitate a reconfiguration can have a virtual application to monitor its
// status and generate a signal if the value changes." FactorMonitor is that
// virtual application: it samples a factor once per frame and emits a change
// signal on transition. The SCRAM consumes these signals exactly like
// component-failure signals — the unification the paper's model relies on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/env/environment.hpp"

namespace arfs::env {

/// Static description of one factor: its discrete domain and initial value.
struct FactorSpec {
  FactorId id;
  std::string name;
  std::int64_t min_value = 0;
  std::int64_t max_value = 0;
  std::int64_t initial = 0;
};

/// Registry of declared factors; the source of truth for domain enumeration
/// used by coverage analysis (every reachable environment must be covered by
/// the SCRAM table — the covering_txns obligation).
class FactorRegistry {
 public:
  void declare(FactorSpec spec);

  [[nodiscard]] const std::vector<FactorSpec>& factors() const {
    return factors_;
  }
  [[nodiscard]] const FactorSpec& spec(FactorId id) const;
  [[nodiscard]] bool declared(FactorId id) const;

  /// Installs every factor's initial value into `environment`.
  void initialize(Environment& environment) const;

  /// Enumerates the full cartesian product of factor domains. Sizes grow
  /// multiplicatively; precondition: product <= limit (guards accidental
  /// explosion in analysis code).
  [[nodiscard]] std::vector<EnvState> enumerate_states(
      std::size_t limit = 1u << 20) const;

 private:
  std::vector<FactorSpec> factors_;
};

/// A change signal produced by a virtual monitor application.
struct EnvChangeSignal {
  SimTime at = 0;
  Cycle cycle = 0;
  FactorId factor{};
  std::int64_t old_value = 0;
  std::int64_t new_value = 0;
};

class FactorMonitor {
 public:
  /// Monitors `factor`, which must be declared in `registry`.
  FactorMonitor(const FactorRegistry& registry, FactorId factor);

  /// Samples the factor; returns a signal if the value changed since the
  /// previous sample (or since construction).
  [[nodiscard]] std::optional<EnvChangeSignal> sample(
      const Environment& environment, Cycle cycle, SimTime now);

  [[nodiscard]] FactorId factor() const { return factor_; }

 private:
  FactorId factor_;
  std::int64_t last_seen_;
  bool seeded_ = false;
};

}  // namespace arfs::env
