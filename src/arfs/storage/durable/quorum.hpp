// Quorum-replicated journal shipping: majority-ack durability over an
// elected cohort of shipped replicas — the system's one replication path.
//
// JournalShipper/ShippedReplica stream one source WAL to one replica. A
// QuorumGroup fans that synced ARFSWAL2 stream out to N members, each an
// independent ShippedReplica at its own cursor (the shipper is stateless
// per cursor, so fan-out costs no source-side state), and tracks the
// Raft-style split per member:
//
//   last_applied  what this member has durably applied (its cursor epoch);
//   commit_id     the group's durability boundary: the highest epoch
//                 acknowledged by a majority of voters, monotone.
//
// Fail-stop semantics (paper section 5.1) make the majority rule unusually
// clean: a member's acknowledged bytes live on its stable devices, which
// survive the member's own fail-stop, so a dead member's acks still count
// toward the boundary — only *retired* members leave the vote. A one-member
// cohort is the classic warm standby: its majority is the lone member, so
// the commit id is simply that member's cursor epoch. A single replica is
// still a single point of failure during a relocation; N >= 3 removes it.
//
// Leadership is deterministic: the lowest-id live, non-retired member is
// the shipper-leader (relocations warm-start from it first). When the
// leader fail-stops the election re-runs by rule — no messages, no terms —
// and shipping resumes from the new leader's own cursor: every member
// already tracks its own ShipCursor, so a leader change never costs a
// full-copy reseed.
//
// Membership changes use joint consensus (the old ∩ new majority rule of
// self-stabilizing reconfiguration): while a change is in flight the commit
// boundary only advances to epochs acknowledged by a majority of the OLD
// voters and a majority of the NEW voters. The change completes when the
// new voters' majority reaches the epoch at which the change was proposed;
// retired members then drop out of shipping, voting, and elections.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/shipping.hpp"
#include "arfs/storage/stable_storage.hpp"

namespace arfs::storage::durable::quorum {

using MemberId = std::uint32_t;

struct QuorumOptions {
  /// Initial cohort size. 1 is the warm standby (the commit boundary is
  /// then the lone member's cursor epoch).
  std::uint32_t replicas = 3;
  /// Durability options of each member's own replica engine (every member
  /// is itself durable).
  DurableOptions member_durability{};
};

struct QuorumStats {
  std::uint64_t slots_polled = 0;
  std::uint64_t batches_shipped = 0;
  std::uint64_t bytes_shipped = 0;
  std::uint64_t rebases = 0;
  std::uint64_t corrupt_batches = 0;
  std::uint64_t fallbacks = 0;  ///< Members that lost their cursor.
  std::uint64_t reseeds = 0;    ///< Full-copy reseeds performed.
  std::uint64_t elections = 0;  ///< Leader changes after construction.
  std::uint64_t member_failures = 0;
  std::uint64_t member_repairs = 0;
  std::uint64_t commit_advances = 0;     ///< Times commit_id moved forward.
  std::uint64_t membership_changes = 0;  ///< Joint changes completed.
};

/// Read-only view of one cohort member's digested state.
struct MemberView {
  ReplicaView replica;
  std::uint64_t last_applied = 0;
  bool live = true;
  bool retired = false;
  bool needs_full_copy = false;
  bool warm_credit = true;
  std::uint32_t consecutive_corrupt = 0;
};

/// Read-only view of a cohort's digested group state, built on the stack by
/// view() (its members are read one at a time through member_view).
struct QuorumView {
  std::size_t members = 0;
  std::span<const MemberId> old_voters;
  std::span<const MemberId> new_voters;
  bool reconfiguring = false;
  std::uint64_t reconfig_epoch = 0;
  std::uint64_t commit_id = 0;
  std::optional<MemberId> leader;
  const QuorumStats* stats = nullptr;
};

/// Fans one source engine's synced journal out to N ShippedReplica members
/// and maintains the majority-acknowledged commit boundary. Each member
/// ships in budgeted batches, rebases in-slot across compactions, and
/// escalates repeated corrupt applies to a full copy.
class QuorumGroup {
 public:
  /// `source` must outlive the group. Precondition: replicas >= 1.
  explicit QuorumGroup(DurabilityEngine& source, QuorumOptions options = {});

  // --- shipping ---

  /// One scheduled quorum ship slot for `id`: moves at most `budget` bytes
  /// to that member. Dead, retired, and reseed-pending members consume
  /// their slot idle (returns 0). Advances last_applied and the commit rule.
  std::size_t pump_member(MemberId id, std::size_t budget);

  /// Relocation-time catch-up: drains the member's remaining shippable
  /// tail regardless of slot budgets. Stops early when a full copy becomes
  /// necessary. Returns the bytes moved.
  std::size_t catch_up_member(MemberId id);

  /// What one ship_round moved.
  struct Round {
    std::size_t bytes = 0;      ///< Journal bytes shipped, all members.
    std::uint32_t reseeds = 0;  ///< Members reseeded from a full copy.
  };
  /// ship_round's budget for a relocation-grade catch-up.
  static constexpr std::size_t kCatchUp = SIZE_MAX;
  /// One pass over every member in id order, the loop both the frame's
  /// quorum slots and a catch-up run: each member ships one slot of
  /// `slot_bytes` (pump_member) or, at kCatchUp, its whole remaining tail
  /// (catch_up_member); then a live member whose cursor was lost is
  /// reseeded from `source_store`, the source's committed store, at the
  /// source engine's dictionary, generation and synced size.
  Round ship_round(const StableStorage& source_store, std::size_t slot_bytes);

  /// True when `id`'s cursor was lost and shipping to it is paused until
  /// the owner reseeds it (reseed_member).
  [[nodiscard]] bool member_needs_full_copy(MemberId id) const;

  /// Reseeds `id` from the source's committed store (the full-copy
  /// fallback); shipping to it resumes at `offset` of `generation`. When the
  /// copy's boundary lies below commit_id() the source rewrote history (a
  /// lossy recovery): dead-generation acks clamp to the boundary and the
  /// commit id re-bases onto the recomputed majority — the one sanctioned
  /// exception to its monotonicity.
  void reseed_member(MemberId id, const StableStorage& source_store,
                     std::span<const std::string> dict,
                     std::uint64_t generation, std::uint64_t offset);

  /// Whether a warm relocation from `id` may claim avoided-bytes credit:
  /// false exactly when the member's warmth was bought by a full-copy
  /// reseed since the last claim. Consuming the credit re-arms it.
  bool take_warm_credit(MemberId id);

  // --- liveness, election, membership ---

  /// Fail-stops member `id` (its stable devices — and therefore its acks —
  /// survive). Returns true exactly when this failure cost the live
  /// majority. No-op (false) if already down.
  bool fail_member(MemberId id);

  /// Returns a fail-stopped member to service at its surviving cursor.
  /// Returns true exactly when this repair restored the live majority.
  bool repair_member(MemberId id);

  /// Proposes a joint membership change: `add` fresh members (returned ids;
  /// they reseed via the full-copy path before streaming) and retire the
  /// given current voters. Completes automatically once a majority of the
  /// new voters has applied everything committed at proposal time.
  /// Preconditions: no change already in flight; every retiree is a
  /// current voter; the new voter set is non-empty.
  std::vector<MemberId> begin_reconfig(std::uint32_t add,
                                       const std::vector<MemberId>& retire);
  [[nodiscard]] bool reconfiguring() const { return reconfiguring_; }

  /// The shipper-leader: lowest-id live, non-retired member. nullopt when
  /// every member is down or retired.
  [[nodiscard]] std::optional<MemberId> leader() const { return leader_; }

  /// Live-majority rule, joint-aware: a majority of the old voters is up,
  /// and (while reconfiguring) a majority of the new voters too.
  [[nodiscard]] bool has_majority() const;

  /// Members a relocation should poll for a warm start, best first:
  /// the leader, then the remaining live members in id order.
  [[nodiscard]] std::vector<MemberId> warm_start_order() const;

  // --- commit rule ---

  /// The majority-acknowledged durability boundary (monotone): the highest
  /// epoch applied by a majority of voters — of both voter sets while a
  /// membership change is in flight.
  [[nodiscard]] std::uint64_t commit_id() const { return commit_id_; }

  // --- introspection ---

  [[nodiscard]] std::size_t member_count() const { return members_.size(); }
  [[nodiscard]] std::uint32_t live_count() const;
  [[nodiscard]] bool member_live(MemberId id) const;
  [[nodiscard]] bool member_retired(MemberId id) const;
  [[nodiscard]] std::uint64_t last_applied(MemberId id) const;
  [[nodiscard]] const ShippedReplica& replica(MemberId id) const;
  [[nodiscard]] const std::vector<MemberId>& voters() const {
    return old_voters_;
  }
  [[nodiscard]] const std::vector<MemberId>& new_voters() const {
    return new_voters_;
  }
  [[nodiscard]] DurabilityEngine& source() { return shipper_.engine(); }
  [[nodiscard]] const QuorumOptions& options() const { return options_; }
  [[nodiscard]] const QuorumStats& stats() const { return stats_; }

  // --- copying ---

  /// The digested state, read in place (see QuorumView and MemberView).
  [[nodiscard]] QuorumView view() const;
  [[nodiscard]] MemberView member_view(MemberId id) const;
  /// Makes the group a copy of `source`: every member's replica
  /// (ShippedReplica::restore_state) and standing, the voter sets, the
  /// commit bookkeeping, leadership and stats. Members are created or
  /// discarded at the end of the roster to match the source's (a copy may
  /// straddle a membership change). This group keeps its own source
  /// engine, shipper and scratch buffers, so a checkpoint of a group is a
  /// spare group on a spare processor's engine. Only reads `source`.
  void restore_state(const QuorumGroup& source);

 private:
  struct Member {
    ShippedReplica replica;
    std::uint64_t last_applied = 0;
    bool live = true;
    bool retired = false;
    bool needs_full_copy = false;
    bool warm_credit = true;
    /// Consecutive corrupt applies at one cursor position: the source's own
    /// journal bytes are bad (latent media fault without a crash), so
    /// retransmission can never succeed — escalate to a full copy.
    std::uint32_t consecutive_corrupt = 0;
  };

  /// Ships one member one budgeted batch, with in-slot rebase and
  /// corrupt-retry escalation. Returns the bytes moved.
  std::size_t step_member(Member& m, std::size_t budget);
  /// Recomputes the commit boundary from the voter acks and completes an
  /// in-flight membership change when the new majority has caught up.
  void update_commit();
  /// Majority order statistic of `voters`' last_applied (the epoch held by
  /// more than half of them). Dead members count; `voters` is non-empty.
  /// Sorts in the reused ack_scratch_, so a commit update allocates nothing.
  [[nodiscard]] std::uint64_t majority_ack(const std::vector<MemberId>& voters);
  /// Deterministic re-election; bumps stats_.elections when the leader
  /// actually changes.
  void elect();
  void append_member();
  Member& member_ref(MemberId id);
  [[nodiscard]] const Member& member_at(MemberId id) const;

  JournalShipper shipper_;
  QuorumOptions options_;
  std::vector<Member> members_;
  /// Current voters, and the proposed set while a change is in flight
  /// (equal otherwise). Ids only — liveness lives on the members.
  std::vector<MemberId> old_voters_;
  std::vector<MemberId> new_voters_;
  bool reconfiguring_ = false;
  std::uint64_t reconfig_epoch_ = 0;  ///< commit_id when the change began.
  std::uint64_t commit_id_ = 0;
  std::optional<MemberId> leader_;
  QuorumStats stats_;
  /// majority_ack's sort buffer (scratch only; never copied).
  std::vector<std::uint64_t> ack_scratch_;
  /// step_member's batch buffer: every slot's bytes land here (scratch
  /// only; never copied).
  ShipBatch batch_;
};

}  // namespace arfs::storage::durable::quorum
