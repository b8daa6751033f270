// Inter-application dependencies during reconfiguration.
//
// Paper section 7.1: "There is only one dependency during initialization,
// namely that the autopilot cannot resume service in the Reduced Service
// configuration until the FCS has completed its reconfiguration."
// Section 6.3 describes the general mechanism: the SCRAM checks each cycle
// whether the independent application has completed its current configuration
// phase and only then signals the dependent application to begin its next
// stage. Dependencies must be acyclic (paper section 4).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "arfs/common/ids.hpp"

namespace arfs::core {

/// The SFTA phase a dependency constrains.
enum class DepPhase { kHalt, kPrepare, kInitialize };

struct Dependency {
  AppId dependent{};    ///< Must wait.
  AppId independent{};  ///< Must complete the phase first.
  DepPhase phase = DepPhase::kInitialize;
  /// If set, the dependency applies only when reconfiguring *to* this
  /// configuration (the avionics dependency applies only in Reduced).
  std::optional<ConfigId> only_for_target;
};

class DependencyGraph {
 public:
  void add(Dependency dep);

  [[nodiscard]] const std::vector<Dependency>& all() const { return deps_; }

  /// Dependencies constraining `dependent` in `phase` when the target
  /// configuration is `target`.
  [[nodiscard]] std::vector<Dependency> constraints_on(
      AppId dependent, DepPhase phase, ConfigId target) const;

  /// True when `holds(d)` is true for every dependency constraining
  /// `dependent` in `phase` toward `target`, walked in declaration order
  /// up to the first that fails; nothing is copied.
  template <typename Pred>
  [[nodiscard]] bool all_constraints_on(AppId dependent, DepPhase phase,
                                        ConfigId target, Pred holds) const {
    for (const Dependency& d : deps_) {
      if (d.dependent != dependent || d.phase != phase) continue;
      if (d.only_for_target.has_value() && *d.only_for_target != target) {
        continue;
      }
      if (!holds(d)) return false;
    }
    return true;
  }

  /// True if the dependency relation (ignoring phases/targets) is acyclic —
  /// the paper's structural requirement on application dependencies.
  [[nodiscard]] bool acyclic() const;

  /// Longest dependency chain length for `phase` and `target` (number of
  /// edges on the longest path). This bounds the extra frames the phase
  /// needs: a chain of k edges stretches the phase across k+1 frames.
  /// Precondition: acyclic().
  [[nodiscard]] std::size_t longest_chain(DepPhase phase,
                                          ConfigId target) const;

 private:
  std::vector<Dependency> deps_;
};

[[nodiscard]] std::string to_string(DepPhase phase);

}  // namespace arfs::core
