#include "arfs/storage/stable_storage.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "arfs/common/hash.hpp"

namespace arfs::storage {

namespace {

/// Three-way comparison of `name` against the concatenation `prefix + key`,
/// without building the concatenation.
int compare_split(std::string_view name, std::string_view prefix,
                  std::string_view key) {
  if (const int c = name.substr(0, prefix.size()).compare(prefix); c != 0) {
    return c;
  }
  return name.substr(prefix.size()).compare(key);
}

Unexpected missing_key(std::string_view key) {
  return unexpected("stable-storage key not committed: " + std::string(key));
}

/// Value equality at fingerprint() resolution: the same alternative and,
/// for a double, the same bit pattern rather than the same number.
bool same_bits(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  if (const double* d = std::get_if<double>(&a)) {
    return std::bit_cast<std::uint64_t>(*d) ==
           std::bit_cast<std::uint64_t>(std::get<double>(b));
  }
  return a == b;
}

}  // namespace

StableStorage& StableStorage::operator=(const StableStorage& other) {
  if (this == &other) return *this;
  const std::size_t theirs = other.names_.size();
  const std::size_t common = std::min(theirs, names_.size());
  if (std::equal(names_.begin(), names_.begin() + common,
                 other.names_.begin())) {
    // One table is a prefix of the other (the usual checkpoint restore):
    // ids coincide, so slots copy across by index.
    if (theirs > names_.size()) {
      names_.insert(names_.end(), other.names_.begin() + common,
                    other.names_.end());
      sorted_ = other.sorted_;
      rank_ = other.rank_;
      slots_.resize(theirs);
    }
    std::copy(other.slots_.begin(), other.slots_.end(), slots_.begin());
    for (std::size_t id = theirs; id < slots_.size(); ++id) {
      slots_[id].present = slots_[id].is_staged = false;
    }
    pending_ = other.pending_;
  } else {
    // A foreign table: translate `other`'s ids by name, interning names this
    // table lacks. The translation preserves name order, so the staged ids
    // stay sorted.
    std::vector<KeyId> ours(theirs);
    intern_batch(
        other.sorted_,
        [&](KeyId id) -> std::string_view { return other.names_[id.value()]; },
        [&](KeyId mine, KeyId id) { ours[id.value()] = mine; });
    for (Slot& slot : slots_) slot.present = slot.is_staged = false;
    for (std::size_t id = 0; id < theirs; ++id) {
      slots_[ours[id].value()] = other.slots_[id];
    }
    pending_.clear();
    for (const KeyId id : other.pending_) pending_.push_back(ours[id.value()]);
  }
  committed_ = other.committed_;
  history_ = other.history_;
  history_on_ = other.history_on_;
  epochs_ = other.epochs_;
  return *this;
}

std::vector<KeyId>::const_iterator StableStorage::name_bound(
    std::string_view prefix, std::string_view name) const {
  return std::partition_point(sorted_.begin(), sorted_.end(), [&](KeyId id) {
    return compare_split(names_[id.value()], prefix, name) < 0;
  });
}

std::optional<KeyId> StableStorage::find_key(std::string_view prefix,
                                             std::string_view name) const {
  const auto it = name_bound(prefix, name);
  if (it == sorted_.end() ||
      compare_split(names_[it->value()], prefix, name) != 0) {
    return std::nullopt;
  }
  return *it;
}

KeyId StableStorage::intern(std::string_view prefix, std::string_view name) {
  const auto it = name_bound(prefix, name);
  if (it != sorted_.end() &&
      compare_split(names_[it->value()], prefix, name) == 0) {
    return *it;
  }
  std::string full;
  full.reserve(prefix.size() + name.size());
  full.append(prefix).append(name);
  return add_name(std::move(full),
                  static_cast<std::size_t>(it - sorted_.begin()));
}

KeyId StableStorage::add_name(std::string name, std::size_t pos) {
  const KeyId id{static_cast<std::uint32_t>(names_.size())};
  names_.push_back(std::move(name));
  slots_.emplace_back();
  rank_.push_back(0);
  sorted_.insert(sorted_.begin() + static_cast<std::ptrdiff_t>(pos), id);
  for (std::size_t r = pos; r < sorted_.size(); ++r) {
    rank_[sorted_[r].value()] = static_cast<std::uint32_t>(r);
  }
  return id;
}

template <typename Batch, typename NameOf, typename Apply>
void StableStorage::intern_batch(const Batch& batch, NameOf name_of,
                                 Apply apply) {
  bool sorted = true;
  for (std::size_t i = 1; i < batch.size() && sorted; ++i) {
    sorted = name_of(batch[i - 1]) < name_of(batch[i]);
  }
  if (!sorted) {
    // Never produced by this library's encoders, but decoded bytes are
    // untrusted: stay correct, just not linear.
    for (const auto& entry : batch) apply(intern(name_of(entry)), entry);
    return;
  }
  // One merge pass: both sides ascend, so the cursor into the sorted index
  // only moves forward. New names are appended to the table at once and
  // spliced into the index after the pass.
  std::vector<std::pair<std::size_t, KeyId>> fresh;  // (index position, id)
  std::size_t cursor = 0;
  for (const auto& entry : batch) {
    const std::string_view name = name_of(entry);
    while (cursor < sorted_.size() && names_[sorted_[cursor].value()] < name) {
      ++cursor;
    }
    KeyId id;
    if (cursor < sorted_.size() && names_[sorted_[cursor].value()] == name) {
      id = sorted_[cursor];
    } else {
      id = KeyId{static_cast<std::uint32_t>(names_.size())};
      names_.emplace_back(name);
      slots_.emplace_back();
      rank_.push_back(0);
      fresh.emplace_back(cursor, id);
    }
    apply(id, entry);
  }
  if (fresh.empty()) return;
  std::vector<KeyId> merged;
  merged.reserve(sorted_.size() + fresh.size());
  std::size_t next = 0;
  for (std::size_t pos = 0; pos <= sorted_.size(); ++pos) {
    while (next < fresh.size() && fresh[next].first == pos) {
      merged.push_back(fresh[next++].second);
    }
    if (pos < sorted_.size()) merged.push_back(sorted_[pos]);
  }
  sorted_ = std::move(merged);
  for (std::size_t r = 0; r < sorted_.size(); ++r) {
    rank_[sorted_[r].value()] = static_cast<std::uint32_t>(r);
  }
}

void StableStorage::insert_pending(KeyId key) {
  const std::uint32_t rank = rank_[key.value()];
  pending_.insert(std::partition_point(pending_.begin(), pending_.end(),
                                       [&](KeyId id) {
                                         return rank_[id.value()] < rank;
                                       }),
                  key);
}

void StableStorage::set_slot(KeyId id, Value&& value, Cycle committed_at) {
  Slot& slot = slots_[id.value()];
  if (!slot.present) {
    slot.present = true;
    ++committed_;
  }
  slot.value = std::move(value);
  slot.committed_at = committed_at;
}

std::size_t StableStorage::commit(Cycle cycle) {
  const std::size_t n = pending_.size();
  for (const KeyId id : pending_) {
    Slot& slot = slots_[id.value()];
    if (history_on_) {
      history_.push_back(CommitRecord{cycle, names_[id.value()], slot.staged});
    }
    slot.is_staged = false;
    set_slot(id, std::move(slot.staged), cycle);
  }
  pending_.clear();
  ++epochs_;
  return n;
}

void StableStorage::drop_pending() {
  for (const KeyId id : pending_) slots_[id.value()].is_staged = false;
  pending_.clear();
}

Expected<Value> StableStorage::read(KeyId key) const {
  const Slot& slot = slots_[key.value()];
  if (!slot.present) return missing_key(names_[key.value()]);
  return slot.value;
}

Expected<Value> StableStorage::read(std::string_view key) const {
  const std::optional<KeyId> id = find_key(key);
  if (!id.has_value()) return missing_key(key);
  return read(*id);
}

Expected<Value> StableStorage::read_own(KeyId key) const {
  const Slot& slot = slots_[key.value()];
  if (slot.is_staged) return slot.staged;
  return read(key);
}

Expected<Value> StableStorage::read_own(std::string_view key) const {
  const std::optional<KeyId> id = find_key(key);
  if (!id.has_value()) return missing_key(key);
  return read_own(*id);
}

bool StableStorage::contains(std::string_view key) const {
  const std::optional<KeyId> id = find_key(key);
  return id.has_value() && contains(*id);
}

std::optional<Cycle> StableStorage::last_commit_cycle(
    std::string_view key) const {
  const std::optional<KeyId> id = find_key(key);
  if (!id.has_value() || !contains(*id)) return std::nullopt;
  return slots_[id->value()].committed_at;
}

std::vector<std::string> StableStorage::keys() const {
  std::vector<std::string> out;
  out.reserve(committed_);
  for (const KeyId id : sorted_) {
    if (slots_[id.value()].present) out.push_back(names_[id.value()]);
  }
  return out;
}

std::vector<std::tuple<std::string, Value, Cycle>>
StableStorage::committed_entries() const {
  std::vector<std::tuple<std::string, Value, Cycle>> out;
  out.reserve(committed_);
  for_each_committed(
      [&out](const std::string& name, const Value& value, Cycle at) {
        out.emplace_back(name, value, at);
      });
  return out;
}

void StableStorage::restore(std::string_view key, Value value,
                            Cycle committed_at) {
  set_slot(intern(key), std::move(value), committed_at);
}

void StableStorage::restore_batch(
    const std::vector<std::pair<std::string, Value>>& entries,
    Cycle committed_at) {
  intern_batch(
      entries,
      [](const auto& entry) -> std::string_view { return entry.first; },
      [&](KeyId id, const auto& entry) {
        set_slot(id, Value(entry.second), committed_at);
      });
}

void StableStorage::restore_batch(
    const std::vector<std::tuple<std::string, Value, Cycle>>& entries) {
  intern_batch(
      entries,
      [](const auto& entry) -> std::string_view { return std::get<0>(entry); },
      [&](KeyId id, const auto& entry) {
        set_slot(id, Value(std::get<1>(entry)), std::get<2>(entry));
      });
}

void StableStorage::reset_committed() {
  for (Slot& slot : slots_) slot.present = false;
  committed_ = 0;
  epochs_ = 0;
}

std::uint64_t StableStorage::fingerprint() const {
  std::uint64_t h = kFnvBasis;
  for (const KeyId id : sorted_) {
    const Slot& slot = slots_[id.value()];
    if (!slot.present) continue;
    h = fnv_mix_bytes(h, names_[id.value()]);
    h = fnv_mix(h, slot.value.index());
    if (const bool* b = std::get_if<bool>(&slot.value)) {
      h = fnv_mix(h, *b ? 1 : 0);
    } else if (const std::int64_t* i = std::get_if<std::int64_t>(&slot.value)) {
      h = fnv_mix(h, static_cast<std::uint64_t>(*i));
    } else if (const double* d = std::get_if<double>(&slot.value)) {
      h = fnv_mix(h, std::bit_cast<std::uint64_t>(*d));
    } else {
      h = fnv_mix_bytes(h, std::get<std::string>(slot.value));
    }
    h = fnv_mix(h, slot.committed_at);
  }
  return h;
}

bool StableStorage::same_committed(const StableStorage& other) const {
  if (committed_ != other.committed_) return false;
  // Both walks visit exactly committed_ present slots, in name order.
  auto mine = sorted_.begin();
  auto theirs = other.sorted_.begin();
  for (std::size_t n = 0; n < committed_; ++n, ++mine, ++theirs) {
    while (!slots_[mine->value()].present) ++mine;
    while (!other.slots_[theirs->value()].present) ++theirs;
    const Slot& a = slots_[mine->value()];
    const Slot& b = other.slots_[theirs->value()];
    if (a.committed_at != b.committed_at || !same_bits(a.value, b.value) ||
        names_[mine->value()] != other.names_[theirs->value()]) {
      return false;
    }
  }
  return true;
}

}  // namespace arfs::storage
