#include "arfs/trace/reconfigs.hpp"

namespace arfs::trace {

std::vector<Reconfiguration> get_reconfigs(const SysTrace& s) {
  std::vector<Reconfiguration> out;
  (void)for_each_reconfig(
      s, [&out](const Reconfiguration& r) { out.push_back(r); });
  return out;
}

std::optional<Cycle> incomplete_reconfig(const SysTrace& s) {
  return for_each_reconfig(s, [](const Reconfiguration&) {});
}

Cycle duration_frames(const Reconfiguration& r) {
  return r.end_c - r.start_c + 1;
}

}  // namespace arfs::trace
