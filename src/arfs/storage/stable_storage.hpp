// Stable storage with atomic end-of-frame commit.
//
// Semantics required by the paper:
//  * contents survive a fail-stop processor failure (section 5.1);
//  * each application commits its results at the end of each computation
//    cycle (section 6.1), and readers in frame n+1 observe exactly the values
//    committed by the end of frame n — never a torn, partially-written frame;
//  * other processors can poll a failed processor's stable storage to learn
//    the state it was in when it failed (section 5.1).
//
// The implementation therefore separates a committed store from a pending
// write buffer. `write` stages into the buffer; `commit` applies the whole
// buffer atomically and stamps the commit cycle; a fail-stop failure calls
// `drop_pending`, discarding staged writes while preserving every committed
// value — precisely the "last successfully completed instruction" boundary,
// lifted to frame granularity.
//
// Keys are interned: each store keeps a name table and hands out a KeyId
// per distinct name, so the per-frame hot path stages and commits by integer
// id — a write copies no key string and a commit compares no strings.
// Committed and staged values live in slots indexed by KeyId; the staged
// key ids are kept in name order, and every name-ordered view (fingerprint,
// committed_entries, pending, keys) walks the table's sorted index, so
// fingerprints and the journal's bytes do not depend on interning order.
// The string-keyed API remains for applications, tools and tests; it
// interns on first use.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "arfs/common/expected.hpp"
#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/storage/value.hpp"

namespace arfs::storage {

struct KeyTag {};
/// An interned stable-storage key: an index into one store's name table.
/// A KeyId stays valid for the whole life of the store that issued it —
/// names are never removed, and assigning another store's state into this
/// one keeps this store's table (see operator=).
using KeyId = detail::StrongId<KeyTag>;

/// One committed write, retained when history recording is on.
struct CommitRecord {
  Cycle cycle = 0;
  std::string key;
  Value value;
};

class StableStorage {
 public:
  StableStorage() = default;
  StableStorage(const StableStorage&) = default;
  StableStorage(StableStorage&&) noexcept = default;
  /// Takes `other`'s committed and staged state, commit history and epoch
  /// counter, but keeps this store's name table, so KeyIds issued before
  /// the assignment stay valid (a processor restoring a checkpoint must not
  /// invalidate the ids its System cached). Names `other` knows and this
  /// store does not are interned here first. Also serves rvalues: there is
  /// deliberately no move assignment, which would replace the table.
  StableStorage& operator=(const StableStorage& other);

  // --- key interning ---

  /// The KeyId of `name`, adding it to the name table on first sight.
  [[nodiscard]] KeyId intern(std::string_view name) { return intern({}, name); }
  /// The KeyId of the concatenated name `prefix + name`, built on the heap
  /// only when the name is new (region keys are "a<id>/" + key).
  [[nodiscard]] KeyId intern(std::string_view prefix, std::string_view name);
  /// The KeyId of `name` (or of `prefix + name`) if it was ever interned.
  [[nodiscard]] std::optional<KeyId> find_key(std::string_view name) const {
    return find_key({}, name);
  }
  [[nodiscard]] std::optional<KeyId> find_key(std::string_view prefix,
                                              std::string_view name) const;
  /// The name an id stands for. Precondition: `id` came from this store.
  [[nodiscard]] const std::string& key_name(KeyId id) const {
    return names_[id.value()];
  }
  /// Names interned so far (committed or not; names are never removed).
  [[nodiscard]] std::size_t name_count() const { return names_.size(); }

  // --- frame protocol ---

  /// Stages a write; visible to readers only after the next commit().
  /// `value` is assigned into the slot's staged Value in place, through
  /// Value's converting assignment, so no temporary Value is built. That
  /// assignment picks the alternative a Value built from `value` holds: a
  /// bool stays bool, a double stays double, a const char* becomes a
  /// std::string (plain overloads would turn a bool or double into int64).
  template <typename V>
    requires std::is_assignable_v<Value&, V&&>
  void write(KeyId key, V&& value) {
    Slot& slot = slots_[key.value()];
    slot.staged = std::forward<V>(value);
    if (!slot.is_staged) mark_staged(key);
  }
  template <typename V>
    requires std::is_assignable_v<Value&, V&&>
  void write(std::string_view key, V&& value) {
    write(intern(key), std::forward<V>(value));
  }

  /// Atomically applies all staged writes, stamping them with `cycle`.
  /// Returns the number of keys committed.
  std::size_t commit(Cycle cycle);

  /// Discards staged writes (fail-stop failure between commits).
  void drop_pending();

  /// Reads the committed value for `key`.
  [[nodiscard]] Expected<Value> read(KeyId key) const;
  [[nodiscard]] Expected<Value> read(std::string_view key) const;

  /// Reads the committed value, checking the type.
  template <typename T>
  [[nodiscard]] Expected<T> read_as(std::string_view key) const {
    Expected<Value> v = read(key);
    if (!v) return unexpected(v.error());
    return get_as<T>(v.value());
  }

  /// Reads the staged (pending) value if one exists, else the committed one.
  /// Only the owning application uses this (its own uncommitted state);
  /// cross-processor polls always use read().
  [[nodiscard]] Expected<Value> read_own(KeyId key) const;
  [[nodiscard]] Expected<Value> read_own(std::string_view key) const;

  [[nodiscard]] bool contains(KeyId key) const {
    return slots_[key.value()].present;
  }
  [[nodiscard]] bool contains(std::string_view key) const;
  /// Cycle at which `key` was last committed; nullopt if never.
  [[nodiscard]] std::optional<Cycle> last_commit_cycle(
      std::string_view key) const;

  [[nodiscard]] std::size_t committed_count() const { return committed_; }
  [[nodiscard]] std::size_t pending_count() const { return pending_.size(); }

  /// All committed keys, sorted.
  [[nodiscard]] std::vector<std::string> keys() const;

  /// The staged batch's keys, sorted by name — what the next commit() will
  /// apply. The durability layer journals exactly this view before the
  /// commit, resolving names through key_name() and values through
  /// pending_value().
  [[nodiscard]] const std::vector<KeyId>& pending() const { return pending_; }
  /// The staged value of `key`. Precondition: `key` is in pending().
  [[nodiscard]] const Value& pending_value(KeyId key) const {
    return slots_[key.value()].staged;
  }

  /// Committed entries as (key, value, committed_at), sorted by key.
  [[nodiscard]] std::vector<std::tuple<std::string, Value, Cycle>>
  committed_entries() const;

  /// Calls visit(name, value, committed_at) for every committed entry in
  /// name order, copying nothing — the snapshot encoder's view.
  template <typename Visit>
  void for_each_committed(Visit visit) const {
    for (const KeyId id : sorted_) {
      const Slot& slot = slots_[id.value()];
      if (slot.present) {
        visit(names_[id.value()], slot.value, slot.committed_at);
      }
    }
  }

  /// Installs a committed entry directly, bypassing the staging buffer.
  /// Recovery-replay only: ordinary writers must go through write()/commit()
  /// so the frame-atomicity contract holds.
  void restore(KeyId key, Value value, Cycle committed_at) {
    set_slot(key, std::move(value), committed_at);
  }
  void restore(std::string_view key, Value value, Cycle committed_at);

  /// Bulk restore of a sorted-by-key batch (one journal record's entries),
  /// all stamped `committed_at`. Names are interned in one merge pass
  /// against the sorted name index, so replaying a journal stays linear in
  /// store + batch size however many names are new.
  void restore_batch(const std::vector<std::pair<std::string, Value>>& entries,
                     Cycle committed_at);

  /// Bulk restore of a sorted-by-key snapshot image, each entry carrying its
  /// own commit cycle.
  void restore_batch(
      const std::vector<std::tuple<std::string, Value, Cycle>>& entries);

  /// Clears all committed state (recovery rebuilds from the devices).
  /// Pending writes, history contents, interned names and configuration are
  /// untouched.
  void reset_committed();

  /// Sets the commit-epoch counter (recovery stamps the replayed epoch so
  /// post-recovery commits continue the journal's epoch sequence).
  void set_commit_epochs(std::uint64_t epochs) { epochs_ = epochs; }

  /// Order-sensitive digest of the committed store: keys, value types and
  /// bit patterns, and commit cycles, in key-name order. Two stores with
  /// equal fingerprints hold bit-identical committed state (FNV-1a,
  /// collision odds ~2^-64).
  [[nodiscard]] std::uint64_t fingerprint() const;
  /// True when `other` holds the same committed entries as this store bit
  /// for bit: the same names, value alternatives, value bits and commit
  /// cycles, so the two fingerprints are equal. A double compares by its
  /// bit pattern, as fingerprint() hashes it: +0.0 and -0.0 differ, and a
  /// NaN equals only a NaN with the same payload. Hashes nothing, so it
  /// costs less than a fingerprint.
  [[nodiscard]] bool same_committed(const StableStorage& other) const;

  /// Enables retention of every commit for post-mortem analysis.
  void enable_history(bool on) { history_on_ = on; }
  [[nodiscard]] const std::vector<CommitRecord>& history() const {
    return history_;
  }

  /// Number of commit() calls, for instrumentation.
  [[nodiscard]] std::uint64_t commit_epochs() const { return epochs_; }

 private:
  struct Slot {
    Value value;
    Value staged;  ///< The pending write, when is_staged.
    Cycle committed_at = 0;
    bool present = false;  ///< Committed (an interned name may have no value).
    bool is_staged = false;
  };

  /// Marks `key`'s slot staged and adds it to pending_ in name order. A key
  /// that ranks after the last staged one (writers that stage in name
  /// order, like the SCRAM) is appended; any other is inserted.
  void mark_staged(KeyId key) {
    slots_[key.value()].is_staged = true;
    if (pending_.empty() ||
        rank_[pending_.back().value()] < rank_[key.value()]) {
      pending_.push_back(key);
    } else {
      insert_pending(key);
    }
  }
  /// The out-of-order branch of mark_staged().
  void insert_pending(KeyId key);
  /// Adds a new name at `pos` of the sorted index; returns its id.
  KeyId add_name(std::string name, std::size_t pos);
  /// Interns every name of a batch (name_of(entry) gives the name) and calls
  /// apply(id, entry) for each, in batch order. A strictly sorted batch is
  /// one merge pass with the sorted index; anything else interns one by one.
  template <typename Batch, typename NameOf, typename Apply>
  void intern_batch(const Batch& batch, NameOf name_of, Apply apply);
  /// Sets a committed slot, keeping committed_ in step. Takes an rvalue so
  /// commit() moves a staged value into its slot exactly once; callers
  /// holding a const entry pass a copy.
  void set_slot(KeyId id, Value&& value, Cycle committed_at);
  /// First position of the sorted index whose name is not below
  /// `prefix + name`.
  [[nodiscard]] std::vector<KeyId>::const_iterator name_bound(
      std::string_view prefix, std::string_view name) const;

  /// Name table: names_[id] is the name of KeyId id; sorted_ lists every id
  /// in name order and rank_[id] is the id's position in sorted_.
  std::vector<std::string> names_;
  std::vector<KeyId> sorted_;
  std::vector<std::uint32_t> rank_;
  /// Committed and staged values, indexed by KeyId.
  std::vector<Slot> slots_;
  std::size_t committed_ = 0;
  /// Ids of the staged slots, sorted by rank (name order).
  std::vector<KeyId> pending_;
  std::vector<CommitRecord> history_;
  bool history_on_ = false;
  std::uint64_t epochs_ = 0;
};

}  // namespace arfs::storage
