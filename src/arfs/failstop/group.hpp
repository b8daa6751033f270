// Processor group: the distributed computing platform of Figure 1.
//
// Owns the set of fail-stop processors and the static application-to-
// processor mapping the paper assumes ("no assumptions on how processes are
// mapped to platform nodes except that the mapping is statically
// determined", section 3; "Applications lost due to a processor failure are
// known to have been lost because of the static association of applications
// to processors", section 5.2).
#pragma once

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/failstop/detector.hpp"
#include "arfs/failstop/processor.hpp"

namespace arfs::failstop {

class ProcessorGroup {
 public:
  /// Creates and registers a processor. Ids must be unique.
  Processor& add_processor(ProcessorId id);

  /// Statically assigns an application to a processor. An app may be mapped
  /// once; the processor must exist.
  void assign_app(AppId app, ProcessorId processor);

  /// O(1): processors live in a table indexed by ProcessorId value (ids are
  /// small integers — every frame looks processors up many times).
  [[nodiscard]] Processor& processor(ProcessorId id) {
    require(has_processor(id), "unknown processor id");
    return *by_id_[id.value()];
  }
  [[nodiscard]] const Processor& processor(ProcessorId id) const {
    require(has_processor(id), "unknown processor id");
    return *by_id_[id.value()];
  }
  [[nodiscard]] bool has_processor(ProcessorId id) const {
    return id.value() < by_id_.size() && by_id_[id.value()] != nullptr;
  }

  /// Processor hosting `app`. Precondition: the app was assigned.
  [[nodiscard]] ProcessorId host_of(AppId app) const;
  [[nodiscard]] Processor& host_processor(AppId app);

  /// Apps statically mapped to `processor`.
  [[nodiscard]] std::vector<AppId> apps_on(ProcessorId processor) const;

  /// All processor ids, in creation order.
  [[nodiscard]] const std::vector<ProcessorId>& processor_ids() const {
    return order_;
  }

  /// Calls `visit(processor)` for every processor in ascending ProcessorId
  /// order (the order of a map keyed by id; processor_ids() is creation
  /// order).
  template <class Visit>
  void for_each_by_id(Visit&& visit) const {
    for (const std::unique_ptr<Processor>& p : by_id_) {
      if (p != nullptr) visit(std::as_const(*p));
    }
  }

  /// Ids of currently running processors.
  [[nodiscard]] std::vector<ProcessorId> running_ids() const;

  /// True iff the processor hosting `app` is running.
  [[nodiscard]] bool app_host_running(AppId app) const;

  /// Heartbeats every running processor into `monitor` (call once per frame
  /// before ActivityMonitor::end_of_frame).
  void heartbeat_all(ActivityMonitor& monitor) const;

  /// Registers every current processor with `monitor`.
  void watch_all(ActivityMonitor& monitor) const;

  /// End-of-frame commit on every running processor.
  void commit_all(Cycle cycle);

  [[nodiscard]] std::size_t size() const { return order_.size(); }

 private:
  /// Indexed by ProcessorId value; null where no processor has that id.
  std::vector<std::unique_ptr<Processor>> by_id_;
  std::vector<ProcessorId> order_;
  std::map<AppId, ProcessorId> app_host_;
};

}  // namespace arfs::failstop
