#include "arfs/analysis/coverage.hpp"

#include <sstream>

namespace arfs::analysis {

namespace {

void add(CoverageReport& report, bool keep, std::string description,
         bool discharged, std::string detail = {}) {
  ++report.generated;
  if (discharged) ++report.discharged;
  if (discharged && !keep) return;
  report.obligations.push_back(
      Obligation{std::move(description), discharged, std::move(detail)});
}

/// The (configuration x environment-state) obligations for one starting
/// configuration. Self-contained so the per-configuration sweeps can run as
/// independent batch jobs.
CoverageReport check_config_transitions(const core::ReconfigSpec& spec,
                                        ConfigId from,
                                        const std::vector<env::EnvState>& states,
                                        bool keep_discharged) {
  CoverageReport report;
  for (const env::EnvState& e : states) {
    std::ostringstream name;
    name << "covering_txns(c" << from.value() << ", " << env::to_string(e)
         << ")";

    ConfigId to{};
    bool choose_ok = true;
    std::string detail;
    try {
      to = spec.choose(from, e);
      if (!spec.has_config(to)) {
        choose_ok = false;
        detail = "choose returned undeclared configuration " +
                 std::to_string(to.value());
      }
    } catch (const std::exception& ex) {
      choose_ok = false;
      detail = std::string("choose threw: ") + ex.what();
    }
    add(report, keep_discharged, name.str(), choose_ok, detail);
    if (!choose_ok || to == from) continue;

    const bool bounded = spec.transition_bound(from, to).has_value();
    add(report, keep_discharged,
        "T(c" + std::to_string(from.value()) + ",c" +
            std::to_string(to.value()) + ") defined",
        bounded,
        bounded ? "" : "no transition time bound for a reachable transition");
  }
  return report;
}

void merge(CoverageReport& into, CoverageReport&& part) {
  into.generated += part.generated;
  into.discharged += part.discharged;
  for (Obligation& o : part.obligations) {
    into.obligations.push_back(std::move(o));
  }
}

std::vector<ConfigId> config_list(const core::ReconfigSpec& spec) {
  std::vector<ConfigId> config_ids;
  config_ids.reserve(spec.configs().size());
  for (const auto& [id, config] : spec.configs()) config_ids.push_back(id);
  return config_ids;
}

/// The global obligations appended after the per-configuration sweep: a
/// safe configuration exists, and one stays reachable from everywhere the
/// initial configuration can go. Shared by every execution engine.
void add_global_obligations(CoverageReport& report,
                            const core::ReconfigSpec& spec,
                            bool keep_discharged, std::size_t env_limit) {
  add(report, keep_discharged, "at least one safe configuration",
      !spec.safe_configs().empty(),
      spec.safe_configs().empty() ? "no configuration is marked safe" : "");

  const TransitionGraph graph = TransitionGraph::build(spec, env_limit);
  const std::set<ConfigId> safe_reaching = graph.can_reach_safe(spec);
  for (const ConfigId c : graph.reachable_from(spec.initial_config())) {
    const bool ok = safe_reaching.contains(c);
    add(report, keep_discharged,
        "safe configuration reachable from c" + std::to_string(c.value()), ok,
        ok ? "" : "no path from this configuration to any safe configuration");
  }
}

}  // namespace

std::vector<Obligation> CoverageReport::failures() const {
  std::vector<Obligation> out;
  for (const Obligation& o : obligations) {
    if (!o.discharged) out.push_back(o);
  }
  return out;
}

CoverageReport check_coverage(const core::ReconfigSpec& spec,
                              bool keep_discharged, std::size_t env_limit,
                              sim::BatchRunner* runner) {
  CoverageReport report;

  const std::vector<env::EnvState> states =
      spec.factors().enumerate_states(env_limit);
  const std::vector<ConfigId> config_ids = config_list(spec);

  // One job per starting configuration; partial reports are merged back in
  // configuration order, so the parallel report is identical to the serial
  // one (choose functions are required to be pure, making the jobs
  // side-effect free).
  std::vector<CoverageReport> parts(config_ids.size());
  const auto sweep_one = [&](std::size_t i) {
    parts[i] =
        check_config_transitions(spec, config_ids[i], states, keep_discharged);
  };
  if (runner != nullptr) {
    runner->run(config_ids.size(), sweep_one);
  } else {
    for (std::size_t i = 0; i < config_ids.size(); ++i) sweep_one(i);
  }
  for (CoverageReport& part : parts) merge(report, std::move(part));

  add_global_obligations(report, spec, keep_discharged, env_limit);
  return report;
}

CoverageReport check_coverage(const core::ReconfigSpec& spec,
                              bool keep_discharged, std::size_t env_limit,
                              sim::FleetRunner& fleet) {
  CoverageReport report;

  const std::vector<env::EnvState> states =
      spec.factors().enumerate_states(env_limit);
  const std::vector<ConfigId> config_ids = config_list(spec);

  // Fleet path: configurations are heavyweight jobs (chunk grain 1) with
  // shard-local result caches concatenated in configuration order — the
  // report is identical to the serial and BatchRunner paths. The jobs are
  // pure, so the sample seeds go unused.
  std::vector<CoverageReport> parts = fleet.map<CoverageReport>(
      config_ids.size(), /*base_seed=*/0, [&](const sim::FleetSample& job) {
        return check_config_transitions(spec, config_ids[job.index], states,
                                        keep_discharged);
      });
  for (CoverageReport& part : parts) merge(report, std::move(part));

  add_global_obligations(report, spec, keep_discharged, env_limit);
  return report;
}

}  // namespace arfs::analysis
