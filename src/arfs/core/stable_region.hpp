// Per-application stable-storage region.
//
// In the Reduced Service configuration of the paper's example, two
// applications share one computer — and hence one physical stable storage.
// A StableRegion gives each application a private namespace within its host
// processor's stable storage by prefixing every key with "a<appid>/". The
// region can be relocated wholesale to another processor when a
// reconfiguration moves the application (the survivors poll the failed
// processor's stable storage, paper section 5.1).
//
// A region remembers the KeyIds it has resolved on its current store, so an
// application's steady-state writes and reads look up no name: the memo is
// a fixed inline table whose entries are matched against the store's own
// interned names, so it never copies a key and never allocates. It is
// derived state, like every KeyId table: rebinding the region to another
// store forgets it, and a store keeps its ids across restores (see
// StableStorage::operator=), so nothing about it is checkpointed.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "arfs/storage/stable_storage.hpp"

namespace arfs::core {

class StableRegion {
 public:
  /// Keys resolved per store before the region falls back to a (prefix,
  /// key) lookup on every access. Today's applications write at most 3.
  static constexpr std::size_t kMemoCapacity = 8;

  /// An unbound region; bind() it before any access.
  explicit StableRegion(std::string prefix) : prefix_(std::move(prefix)) {}
  /// `backing` must outlive the region (or its next bind()).
  StableRegion(storage::StableStorage& backing, std::string prefix)
      : backing_(&backing), prefix_(std::move(prefix)) {}

  /// Points the region at `store`. Free when it already points there;
  /// another store forgets every remembered KeyId (a memo entry is matched
  /// only past the prefix, so an id from one store could name another
  /// app's same-named key on the next).
  void bind(storage::StableStorage& store) {
    if (backing_ == &store) return;
    backing_ = &store;
    memo_size_ = 0;
  }

  /// Stages a write; visible after the end-of-frame commit. `value` goes
  /// straight into the store's staged slot (see StableStorage::write).
  template <typename V>
    requires std::is_assignable_v<storage::Value&, V&&>
  void write(std::string_view key, V&& value) {
    backing_->write(resolve(key), std::forward<V>(value));
  }

  /// Reads the committed value (what every *other* frame and application
  /// observes).
  [[nodiscard]] Expected<storage::Value> read(std::string_view key) const {
    storage::KeyId id;
    if (find(key, id)) return backing_->read(id);
    return backing_->read(full_key(key));  // the store's missing-key error
  }

  /// Reads this frame's own staged value if present, else the committed one.
  [[nodiscard]] Expected<storage::Value> read_own(std::string_view key) const {
    storage::KeyId id;
    if (find(key, id)) return backing_->read_own(id);
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
    storage::KeyId id;
    return find(key, id) && backing_->contains(id);
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
  // recall() and find() report a found id through `id` and a bool, not as
  // a returned std::optional<KeyId>: GCC builds such an optional in two
  // stack stores (the id, then the flag) and reloads them as one 8-byte
  // word, which the CPU cannot forward from the two smaller stores, a
  // stall on every region access of every frame.

  /// Sets `id` to the remembered id of `key` on the bound store, if any.
  [[nodiscard]] bool recall(std::string_view key, storage::KeyId& id) const {
    for (std::size_t i = 0; i < memo_size_; ++i) {
      const std::string& name = backing_->key_name(memo_[i]);
      if (name.size() == prefix_.size() + key.size() &&
          std::string_view(name).substr(prefix_.size()) == key) {
        id = memo_[i];
        return true;
      }
    }
    return false;
  }

  void remember(storage::KeyId id) const {
    if (memo_size_ < kMemoCapacity) memo_[memo_size_++] = id;
  }

  /// Sets `id` to the id of an existing key; a missing key stays
  /// un-interned.
  [[nodiscard]] bool find(std::string_view key, storage::KeyId& id) const {
    if (recall(key, id)) return true;
    const std::optional<storage::KeyId> found =
        backing_->find_key(prefix_, key);
    if (!found.has_value()) return false;
    id = *found;
    remember(id);
    return true;
  }

  /// The id of `key`, interned on first sight.
  [[nodiscard]] storage::KeyId resolve(std::string_view key) {
    storage::KeyId id;
    if (recall(key, id)) return id;
    id = backing_->intern(prefix_, key);
    remember(id);
    return id;
  }

  [[nodiscard]] std::string full_key(std::string_view key) const {
    return prefix_ + std::string(key);
  }

  storage::StableStorage* backing_ = nullptr;
  std::string prefix_;
  /// Ids resolved on *backing_, in first-use order. Mutable: reads fill it.
  mutable std::array<storage::KeyId, kMemoCapacity> memo_{};
  mutable std::size_t memo_size_ = 0;
};

}  // namespace arfs::core
