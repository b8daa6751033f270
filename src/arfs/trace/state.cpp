#include "arfs/trace/state.hpp"

#include <algorithm>

namespace arfs::trace {

std::string to_string(ReconfState st) {
  switch (st) {
    case ReconfState::kNormal:        return "normal";
    case ReconfState::kInterrupted:   return "interrupted";
    case ReconfState::kHalted:        return "halted";
    case ReconfState::kPrepared:      return "prepared";
    case ReconfState::kAwaitingStart: return "awaiting-start";
  }
  return "?";
}

bool all_normal(const SysStateView& s) {
  for (const auto& [app, snap] : s.apps) {
    if (snap.reconf_st != ReconfState::kNormal) return false;
  }
  return true;
}

bool any_interrupted(const SysStateView& s) {
  for (const auto& [app, snap] : s.apps) {
    if (snap.reconf_st == ReconfState::kInterrupted) return true;
  }
  return false;
}

const AppSnapshot* find_app(const SysStateView& s, AppId app) {
  const auto it = std::lower_bound(
      s.apps.begin(), s.apps.end(), app,
      [](const AppRow& row, AppId id) { return row.first < id; });
  return it != s.apps.end() && it->first == app ? &it->second : nullptr;
}

AppSnapshot* find_app(SysState& s, AppId app) {
  return const_cast<AppSnapshot*>(find_app(SysStateView(s), app));
}

}  // namespace arfs::trace
