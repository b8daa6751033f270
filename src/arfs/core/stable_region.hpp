// Per-application stable-storage region.
//
// In the Reduced Service configuration of the paper's example, two
// applications share one computer — and hence one physical stable storage.
// A StableRegion gives each application a private namespace within its host
// processor's stable storage by prefixing every key with "a<appid>/". The
// region can be relocated wholesale to another processor when a
// reconfiguration moves the application (the survivors poll the failed
// processor's stable storage, paper section 5.1).
#pragma once

#include <string>
#include <string_view>
#include <utility>

#include "arfs/storage/stable_storage.hpp"

namespace arfs::core {

class StableRegion {
 public:
  /// `backing` must outlive the region.
  StableRegion(storage::StableStorage& backing, std::string prefix)
      : backing_(&backing), prefix_(std::move(prefix)) {}

  // Keys resolve as (prefix, key) against the backing store's interned
  // names, so a steady-state access never builds `prefix + key`.

  /// Stages a write; visible after the end-of-frame commit.
  void write(std::string_view key, storage::Value value) {
    backing_->write(backing_->intern(prefix_, key), std::move(value));
  }

  /// Reads the committed value (what every *other* frame and application
  /// observes).
  [[nodiscard]] Expected<storage::Value> read(std::string_view key) const {
    if (const auto id = backing_->find_key(prefix_, key)) {
      return backing_->read(*id);
    }
    return backing_->read(full_key(key));  // the store's missing-key error
  }

  /// Reads this frame's own staged value if present, else the committed one.
  [[nodiscard]] Expected<storage::Value> read_own(std::string_view key) const {
    if (const auto id = backing_->find_key(prefix_, key)) {
      return backing_->read_own(*id);
    }
    return backing_->read_own(full_key(key));
  }

  template <typename T>
  [[nodiscard]] Expected<T> read_as(std::string_view key) const {
    Expected<storage::Value> v = read(key);
    if (!v) return unexpected(v.error());
    return storage::get_as<T>(v.value());
  }

  template <typename T>
  [[nodiscard]] Expected<T> read_own_as(std::string_view key) const {
    Expected<storage::Value> v = read_own(key);
    if (!v) return unexpected(v.error());
    return storage::get_as<T>(v.value());
  }

  [[nodiscard]] bool contains(std::string_view key) const {
    const auto id = backing_->find_key(prefix_, key);
    return id.has_value() && backing_->contains(*id);
  }

  [[nodiscard]] const std::string& prefix() const { return prefix_; }
  [[nodiscard]] storage::StableStorage& backing() { return *backing_; }

  /// Copies every committed key of `from`'s region on `source` into
  /// `target` as staged writes (region relocation during reconfiguration).
  /// Returns the number of keys copied.
  static std::size_t relocate(const storage::StableStorage& source,
                              storage::StableStorage& target,
                              const std::string& prefix);

 private:
  [[nodiscard]] std::string full_key(std::string_view key) const {
    return prefix_ + std::string(key);
  }

  storage::StableStorage* backing_;
  std::string prefix_;
};

}  // namespace arfs::core
