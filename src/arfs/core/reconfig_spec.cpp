#include "arfs/core/reconfig_spec.hpp"

#include <algorithm>
#include <utility>

#include "arfs/common/check.hpp"

namespace arfs::core {

void ReconfigSpec::declare_app(AppDecl app) {
  require(!has_app(app.id), "app declared twice");
  require(!app.specs.empty(), "app must have at least one specification");
  for (const FunctionalSpec& s : app.specs) {
    require(!has_spec(s.id), "spec id declared twice (ids are global)");
    // Incrementally growing apps_ means has_spec above already sees the
    // specs of previously declared apps; within-app duplicates are caught by
    // checking the tail of this app's own list.
    for (const FunctionalSpec& t : app.specs) {
      if (&s != &t) require(s.id != t.id, "duplicate spec id within app");
    }
  }
  const std::size_t position = apps_.size();
  for (std::size_t k = 0; k < app.specs.size(); ++k) {
    const SpecSlot slot{app.specs[k].id, position, k};
    const auto at = std::lower_bound(
        spec_index_.begin(), spec_index_.end(), slot.id,
        [](const SpecSlot& e, SpecId id) { return e.id < id; });
    spec_index_.insert(at, slot);
  }
  apps_by_id_.insert(
      std::lower_bound(
          apps_by_id_.begin(), apps_by_id_.end(), app.id,
          [](const AppSlot& slot, AppId id) { return slot.id < id; }),
      AppSlot{position, app.id});
  apps_.push_back(std::move(app));
}

void ReconfigSpec::declare_config(Configuration config) {
  require(!configs_.contains(config.id), "configuration declared twice");
  configs_.emplace(config.id, std::move(config));
}

void ReconfigSpec::declare_factor(env::FactorSpec factor) {
  factors_.declare(std::move(factor));
}

void ReconfigSpec::set_transition_bound(ConfigId from, ConfigId to,
                                        Cycle frames) {
  require(frames >= 1, "transition bound must be at least one frame");
  bounds_[{from, to}] = frames;
}

void ReconfigSpec::set_choose(ChooseFn choose) {
  require(static_cast<bool>(choose), "choose function must be callable");
  choose_ = std::move(choose);
}

void ReconfigSpec::set_initial_config(ConfigId config) { initial_ = config; }

std::optional<std::size_t> ReconfigSpec::app_index(AppId id) const {
  const auto it = std::lower_bound(
      apps_by_id_.begin(), apps_by_id_.end(), id,
      [](const AppSlot& slot, AppId key) { return slot.id < key; });
  if (it == apps_by_id_.end() || it->id != id) return std::nullopt;
  return it->pos;
}

const AppDecl& ReconfigSpec::app(AppId id) const {
  const std::optional<std::size_t> pos = app_index(id);
  if (!pos.has_value()) {
    throw Error("unknown app id " + std::to_string(id.value()));
  }
  return apps_[*pos];
}

bool ReconfigSpec::has_app(AppId id) const { return app_index(id).has_value(); }

const ReconfigSpec::SpecSlot* ReconfigSpec::find_spec(SpecId id) const {
  const auto it = std::lower_bound(
      spec_index_.begin(), spec_index_.end(), id,
      [](const SpecSlot& e, SpecId key) { return e.id < key; });
  if (it == spec_index_.end() || it->id != id) return nullptr;
  return &*it;
}

const FunctionalSpec& ReconfigSpec::spec(SpecId id) const {
  const SpecSlot* slot = find_spec(id);
  if (slot == nullptr) {
    throw Error("unknown spec id " + std::to_string(id.value()));
  }
  return apps_[slot->app].specs[slot->spec];
}

bool ReconfigSpec::has_spec(SpecId id) const {
  return find_spec(id) != nullptr;
}

AppId ReconfigSpec::app_of_spec(SpecId id) const {
  const SpecSlot* slot = find_spec(id);
  if (slot == nullptr) {
    throw Error("unknown spec id " + std::to_string(id.value()));
  }
  return apps_[slot->app].id;
}

const Configuration& ReconfigSpec::config(ConfigId id) const {
  const auto it = configs_.find(id);
  if (it == configs_.end()) {
    throw Error("unknown configuration id " + std::to_string(id.value()));
  }
  return it->second;
}

bool ReconfigSpec::has_config(ConfigId id) const {
  return configs_.contains(id);
}

std::optional<Cycle> ReconfigSpec::transition_bound(ConfigId from,
                                                    ConfigId to) const {
  const auto it = bounds_.find({from, to});
  if (it == bounds_.end()) return std::nullopt;
  return it->second;
}

ConfigId ReconfigSpec::choose(ConfigId current,
                              const env::EnvState& environment) const {
  require(static_cast<bool>(choose_), "choose function not set");
  return choose_(current, environment);
}

ConfigId ReconfigSpec::initial_config() const {
  require(initial_.has_value(), "initial configuration not set");
  return *initial_;
}

std::vector<ConfigId> ReconfigSpec::safe_configs() const {
  std::vector<ConfigId> out;
  for (const auto& [id, config] : configs_) {
    if (config.safe) out.push_back(id);
  }
  return out;
}

void ReconfigSpec::validate() const {
  if (apps_.empty()) throw Error("reconfig spec declares no applications");
  if (configs_.empty()) throw Error("reconfig spec declares no configurations");
  if (!choose_) throw Error("reconfig spec has no choose function");
  if (!initial_.has_value()) throw Error("no initial configuration set");
  if (!configs_.contains(*initial_)) {
    throw Error("initial configuration is not declared");
  }

  bool any_safe = false;
  for (const auto& [id, config] : configs_) {
    if (config.safe) any_safe = true;
    for (const auto& [app_id, spec_id] : config.assignment) {
      if (!has_app(app_id)) {
        throw Error("config " + config.name + " assigns unknown app");
      }
      bool owns = false;
      for (const FunctionalSpec& s : app(app_id).specs) {
        if (s.id == spec_id) owns = true;
      }
      if (!owns) {
        throw Error("config " + config.name +
                    " assigns a spec the app does not implement");
      }
      if (!config.placement.contains(app_id)) {
        throw Error("config " + config.name + " does not place app " +
                    std::to_string(app_id.value()));
      }
    }
    for (const auto& [app_id, proc] : config.placement) {
      if (!config.assignment.contains(app_id)) {
        throw Error("config " + config.name + " places an unassigned app");
      }
    }
  }
  if (!any_safe) {
    throw Error("reconfig spec has no safe configuration (section 4 "
                "requires at least one)");
  }
  for (const Dependency& d : deps_.all()) {
    if (!has_app(d.dependent) || !has_app(d.independent)) {
      throw Error("dependency references an undeclared app");
    }
  }
}

}  // namespace arfs::core
