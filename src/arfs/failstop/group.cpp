#include "arfs/failstop/group.hpp"

namespace arfs::failstop {

namespace {

/// Bound on processor id values: they index a dense table.
constexpr std::uint32_t kMaxProcessorId = 1u << 20;

}  // namespace

Processor& ProcessorGroup::add_processor(ProcessorId id) {
  require(id.value() < kMaxProcessorId, "processor id too large");
  require(!has_processor(id), "duplicate processor id");
  if (by_id_.size() <= id.value()) by_id_.resize(id.value() + 1);
  by_id_[id.value()] = std::make_unique<Processor>(id);
  order_.push_back(id);
  return *by_id_[id.value()];
}

void ProcessorGroup::assign_app(AppId app, ProcessorId processor) {
  require(has_processor(processor), "assigning app to unknown processor");
  require(!app_host_.contains(app), "app already assigned to a processor");
  app_host_[app] = processor;
}

ProcessorId ProcessorGroup::host_of(AppId app) const {
  const auto it = app_host_.find(app);
  require(it != app_host_.end(), "app not assigned to any processor");
  return it->second;
}

Processor& ProcessorGroup::host_processor(AppId app) {
  return processor(host_of(app));
}

std::vector<AppId> ProcessorGroup::apps_on(ProcessorId processor) const {
  std::vector<AppId> out;
  for (const auto& [app, host] : app_host_) {
    if (host == processor) out.push_back(app);
  }
  return out;
}

std::vector<ProcessorId> ProcessorGroup::running_ids() const {
  std::vector<ProcessorId> out;
  for (const ProcessorId id : order_) {
    if (by_id_[id.value()]->running()) out.push_back(id);
  }
  return out;
}

bool ProcessorGroup::app_host_running(AppId app) const {
  return processor(host_of(app)).running();
}

void ProcessorGroup::heartbeat_all(ActivityMonitor& monitor) const {
  for (const ProcessorId id : order_) {
    if (by_id_[id.value()]->running()) monitor.heartbeat(id);
  }
}

void ProcessorGroup::watch_all(ActivityMonitor& monitor) const {
  for (const ProcessorId id : order_) monitor.watch(id);
}

void ProcessorGroup::commit_all(Cycle cycle) {
  for (const ProcessorId id : order_) by_id_[id.value()]->commit_frame(cycle);
}

}  // namespace arfs::failstop
