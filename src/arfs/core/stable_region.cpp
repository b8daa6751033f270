#include "arfs/core/stable_region.hpp"

namespace arfs::core {

std::size_t StableRegion::relocate(const storage::StableStorage& source,
                                   storage::StableStorage& target,
                                   const std::string& prefix) {
  std::size_t copied = 0;
  source.for_each_committed(
      [&](const std::string& key, const storage::Value& value, Cycle) {
        if (!key.starts_with(prefix)) return;
        target.write(key, value);
        ++copied;
      });
  return copied;
}

}  // namespace arfs::core
