#include "arfs/core/dependency.hpp"

#include <algorithm>
#include <functional>
#include <set>

#include "arfs/common/check.hpp"

namespace arfs::core {

void DependencyGraph::add(Dependency dep) {
  require(dep.dependent != dep.independent,
          "an application cannot depend on itself");
  deps_.push_back(dep);
  require(acyclic(), "dependency graph must remain acyclic");
}

std::vector<Dependency> DependencyGraph::constraints_on(
    AppId dependent, DepPhase phase, ConfigId target) const {
  std::vector<Dependency> out;
  (void)all_constraints_on(dependent, phase, target,
                           [&out](const Dependency& d) {
                             out.push_back(d);
                             return true;
                           });
  return out;
}

bool DependencyGraph::acyclic() const {
  // DFS with colors over the union of all phase/target edges; a cycle in the
  // union implies a potential cycle in some reconfiguration.
  std::set<AppId> nodes;
  for (const Dependency& d : deps_) {
    nodes.insert(d.dependent);
    nodes.insert(d.independent);
  }
  std::map<AppId, int> color;  // 0 white, 1 gray, 2 black
  std::function<bool(AppId)> has_cycle = [&](AppId node) {
    color[node] = 1;
    for (const Dependency& d : deps_) {
      if (d.dependent != node) continue;
      const int c = color[d.independent];
      if (c == 1) return true;
      if (c == 0 && has_cycle(d.independent)) return true;
    }
    color[node] = 2;
    return false;
  };
  for (const AppId node : nodes) {
    if (color[node] == 0 && has_cycle(node)) return false;
  }
  return true;
}

std::size_t DependencyGraph::longest_chain(DepPhase phase,
                                           ConfigId target) const {
  require(acyclic(), "longest_chain requires an acyclic graph");
  std::set<AppId> nodes;
  std::vector<Dependency> edges;
  for (const Dependency& d : deps_) {
    if (d.phase != phase) continue;
    if (d.only_for_target.has_value() && *d.only_for_target != target) {
      continue;
    }
    edges.push_back(d);
    nodes.insert(d.dependent);
    nodes.insert(d.independent);
  }

  std::map<AppId, std::size_t> depth;
  std::function<std::size_t(AppId)> chain_from = [&](AppId node) {
    const auto it = depth.find(node);
    if (it != depth.end()) return it->second;
    std::size_t best = 0;
    for (const Dependency& d : edges) {
      if (d.dependent == node) {
        best = std::max(best, 1 + chain_from(d.independent));
      }
    }
    depth[node] = best;
    return best;
  };

  std::size_t best = 0;
  for (const AppId node : nodes) best = std::max(best, chain_from(node));
  return best;
}

std::string to_string(DepPhase phase) {
  switch (phase) {
    case DepPhase::kHalt:       return "halt";
    case DepPhase::kPrepare:    return "prepare";
    case DepPhase::kInitialize: return "initialize";
  }
  return "?";
}

}  // namespace arfs::core
