#include "arfs/storage/volatile_storage.hpp"

#include <bit>
#include <utility>
#include <variant>

#include "arfs/common/hash.hpp"

namespace arfs::storage {

void VolatileStorage::write(const std::string& key, Value value) {
  data_[key] = std::move(value);
}

Expected<Value> VolatileStorage::read(const std::string& key) const {
  const auto it = data_.find(key);
  if (it == data_.end()) {
    return unexpected("volatile key not present: " + key);
  }
  return it->second;
}

bool VolatileStorage::contains(const std::string& key) const {
  return data_.contains(key);
}

void VolatileStorage::erase_all() {
  data_.clear();
  ++erases_;
}

std::uint64_t VolatileStorage::fingerprint() const {
  std::uint64_t h = kFnvBasis;
  for (const auto& [key, value] : data_) {
    h = fnv_mix_bytes(h, key);
    h = fnv_mix(h, value.index());
    if (const bool* b = std::get_if<bool>(&value)) {
      h = fnv_mix(h, *b ? 1 : 0);
    } else if (const std::int64_t* i = std::get_if<std::int64_t>(&value)) {
      h = fnv_mix(h, static_cast<std::uint64_t>(*i));
    } else if (const double* d = std::get_if<double>(&value)) {
      h = fnv_mix(h, std::bit_cast<std::uint64_t>(*d));
    } else {
      h = fnv_mix_bytes(h, std::get<std::string>(value));
    }
  }
  h = fnv_mix(h, erases_);
  return h;
}

}  // namespace arfs::storage
