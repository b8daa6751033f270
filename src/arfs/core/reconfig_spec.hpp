// The reconfiguration specification: everything the SCRAM is parameterized
// with (paper section 6.3):
//   * "A table of potential configurations" — declared Configurations;
//   * "A function to choose a new configuration ... maps current
//     configuration and environment state to a new configuration. This
//     function implicitly includes information on valid transitions";
//   * the environment domain (FactorRegistry) the choose function ranges
//     over, feeding the covering_txns coverage obligation (paper Figure 2);
//   * the transition time bounds T(ci, cj) of section 5.3;
//   * application declarations with their specification sets;
//   * inter-application dependencies (section 6.3 / 7.1);
//   * the dwell rule that breaks reconfiguration cycles (section 5.3: "a
//     check that the system has been functional for the necessary amount of
//     time ... before a subsequent reconfiguration takes place").
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/core/configuration.hpp"
#include "arfs/core/dependency.hpp"
#include "arfs/core/spec.hpp"
#include "arfs/env/factor.hpp"

namespace arfs::core {

/// choose: (current configuration, environment state) -> target
/// configuration. Returning the current configuration means "no
/// reconfiguration needed".
using ChooseFn = std::function<ConfigId(ConfigId, const env::EnvState&)>;

class ReconfigSpec {
 public:
  ReconfigSpec() = default;

  // --- construction ---
  void declare_app(AppDecl app);
  void declare_config(Configuration config);
  void declare_factor(env::FactorSpec factor);

  /// Upper bound, in frames, on the transition from `from` to `to`
  /// (the paper's T_ij). Transitions without a bound are invalid.
  void set_transition_bound(ConfigId from, ConfigId to, Cycle frames);

  void set_choose(ChooseFn choose);
  void set_initial_config(ConfigId config);

  /// Minimum frames the system must remain in a configuration before the
  /// SCRAM accepts another reconfiguration (0 disables the dwell rule).
  void set_dwell_frames(Cycle frames) { dwell_frames_ = frames; }

  void add_dependency(Dependency dep) { deps_.add(dep); }

  // --- queries ---
  [[nodiscard]] const std::vector<AppDecl>& apps() const { return apps_; }
  [[nodiscard]] const AppDecl& app(AppId id) const;
  [[nodiscard]] bool has_app(AppId id) const;
  /// Position of `id` in apps() (declaration order), or nullopt when the
  /// app is not declared. Binary search over an index built by declare_app.
  [[nodiscard]] std::optional<std::size_t> app_index(AppId id) const;
  /// Positions in apps() ordered by ascending AppId: the order digests,
  /// trace rows and exports walk, whatever order the apps were declared in.
  [[nodiscard]] const std::vector<std::size_t>& apps_by_id() const {
    return apps_by_id_;
  }
  [[nodiscard]] const FunctionalSpec& spec(SpecId id) const;
  [[nodiscard]] bool has_spec(SpecId id) const;
  /// The app owning `spec`.
  [[nodiscard]] AppId app_of_spec(SpecId id) const;

  [[nodiscard]] const std::map<ConfigId, Configuration>& configs() const {
    return configs_;
  }
  [[nodiscard]] const Configuration& config(ConfigId id) const;
  [[nodiscard]] bool has_config(ConfigId id) const;

  [[nodiscard]] const env::FactorRegistry& factors() const { return factors_; }

  [[nodiscard]] std::optional<Cycle> transition_bound(ConfigId from,
                                                      ConfigId to) const;
  [[nodiscard]] ConfigId choose(ConfigId current,
                                const env::EnvState& environment) const;
  [[nodiscard]] bool has_choose() const { return static_cast<bool>(choose_); }
  /// The raw choose function, for design-time transforms that wrap it
  /// (e.g. analysis::with_safe_interposition).
  [[nodiscard]] const ChooseFn& choose_fn() const { return choose_; }

  [[nodiscard]] ConfigId initial_config() const;
  [[nodiscard]] Cycle dwell_frames() const { return dwell_frames_; }
  [[nodiscard]] const DependencyGraph& dependencies() const { return deps_; }

  /// Safe configurations (paper section 4 requires at least one).
  [[nodiscard]] std::vector<ConfigId> safe_configs() const;

  /// Structural validation; throws Error with a description of the first
  /// problem found. Checks: at least one app/config, assignments reference
  /// declared apps and their own specs, placements cover assignments,
  /// initial config declared, choose set, at least one safe config.
  /// (Transition coverage over the environment is the analysis module's
  /// covering_txns check, which needs enumeration.)
  void validate() const;

 private:
  /// Where one declared spec lives: apps_[app].specs[spec].
  struct SpecSlot {
    SpecId id;
    std::size_t app = 0;
    std::size_t spec = 0;
  };
  /// The SpecSlot of `id`, or nullptr when undeclared.
  [[nodiscard]] const SpecSlot* find_spec(SpecId id) const;

  std::vector<AppDecl> apps_;
  /// Positions in apps_, sorted by AppId (see apps_by_id()).
  std::vector<std::size_t> apps_by_id_;
  /// Every declared spec, sorted by SpecId: spec lookups run once per app
  /// per frame, so they binary-search this instead of scanning all apps.
  std::vector<SpecSlot> spec_index_;
  std::map<ConfigId, Configuration> configs_;
  env::FactorRegistry factors_;
  std::map<std::pair<ConfigId, ConfigId>, Cycle> bounds_;
  ChooseFn choose_;
  std::optional<ConfigId> initial_;
  Cycle dwell_frames_ = 0;
  DependencyGraph deps_;
};

}  // namespace arfs::core
