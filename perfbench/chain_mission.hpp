// The synthetic chain-spec mission that fleet_wide and serve_stream share:
// one support::SimpleApp per declared app, and seed-drawn environment
// campaigns over the spec's severity factor.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>

#include "arfs/core/system.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/simple_app.hpp"

namespace perfbench {

/// Builds `spec`'s system (default options) with a SimpleApp per app.
[[nodiscard]] inline arfs::support::MissionFactory chain_factory(
    std::shared_ptr<arfs::core::ReconfigSpec> spec) {
  return [spec] {
    auto system = std::make_unique<arfs::core::System>(*spec);
    for (const arfs::core::AppDecl& decl : spec->apps()) {
      system->add_app(
          std::make_unique<arfs::support::SimpleApp>(decl.id, decl.name));
    }
    arfs::support::CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

/// `changes` factor changes per seed, landing in [first_frame,
/// first_frame + frames).
[[nodiscard]] inline arfs::support::PlanFactory chain_plans(
    const arfs::core::ReconfigSpec& spec, std::size_t changes,
    arfs::Cycle first_frame, arfs::Cycle frames) {
  arfs::support::EnvPlanParams params;
  params.factors = spec.factors().factors();
  params.changes = changes;
  params.first_frame = first_frame;
  params.frames = frames;
  return arfs::support::make_env_plan_factory(std::move(params));
}

}  // namespace perfbench
