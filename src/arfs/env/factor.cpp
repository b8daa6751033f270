#include "arfs/env/factor.hpp"

#include "arfs/common/check.hpp"

namespace arfs::env {

void FactorRegistry::declare(FactorSpec spec) {
  require(spec.min_value <= spec.max_value, "empty factor domain");
  require(spec.initial >= spec.min_value && spec.initial <= spec.max_value,
          "initial value outside factor domain");
  require(!declared(spec.id), "factor declared twice");
  factors_.push_back(std::move(spec));
}

const FactorSpec& FactorRegistry::spec(FactorId id) const {
  for (const FactorSpec& f : factors_) {
    if (f.id == id) return f;
  }
  throw ContractViolation("unknown factor id");
}

bool FactorRegistry::declared(FactorId id) const {
  for (const FactorSpec& f : factors_) {
    if (f.id == id) return true;
  }
  return false;
}

void FactorRegistry::initialize(Environment& environment) const {
  for (const FactorSpec& f : factors_) environment.declare(f.id, f.initial);
}

std::vector<EnvState> FactorRegistry::enumerate_states(
    std::size_t limit) const {
  std::size_t total = 1;
  for (const FactorSpec& f : factors_) {
    const auto span =
        static_cast<std::size_t>(f.max_value - f.min_value) + 1;
    require(total <= limit / span,
            "environment state space exceeds enumeration limit");
    total *= span;
  }

  std::vector<EnvState> out;
  out.reserve(total);
  EnvState current;
  for (const FactorSpec& f : factors_) current[f.id] = f.min_value;

  for (std::size_t i = 0; i < total; ++i) {
    out.push_back(current);
    // Odometer increment across factor domains.
    for (const FactorSpec& f : factors_) {
      if (current[f.id] < f.max_value) {
        ++current[f.id];
        break;
      }
      current[f.id] = f.min_value;
    }
  }
  return out;
}

FactorMonitor::FactorMonitor(const FactorRegistry& registry, FactorId factor)
    : factor_(factor), last_seen_(0) {
  require(registry.declared(factor), "monitoring undeclared factor");
  last_seen_ = registry.spec(factor).initial;
  seeded_ = true;
}

std::optional<EnvChangeSignal> FactorMonitor::sample(
    const Environment& environment, Cycle cycle, SimTime now) {
  std::optional<EnvChangeSignal> out;
  const std::int64_t value = environment.get(factor_);
  if (seeded_ && value != last_seen_) {
    out = EnvChangeSignal{now, cycle, factor_, last_seen_, value};
  }
  last_seen_ = value;
  return out;
}

}  // namespace arfs::env
