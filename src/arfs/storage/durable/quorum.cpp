#include "arfs/storage/durable/quorum.hpp"

#include <algorithm>
#include <functional>

#include "arfs/common/check.hpp"

namespace arfs::storage::durable::quorum {

namespace {

/// Corrupt applies tolerated at one cursor position before concluding the
/// source journal itself is damaged (transit faults clear on the first
/// clean retransmission; a latent media fault never does).
constexpr std::uint32_t kMaxCorruptRetries = 3;

/// Whole records per catch-up step keep a member's pending buffer bounded.
constexpr std::size_t kCatchUpChunk = 64 * 1024;

bool contains(const std::vector<MemberId>& ids, MemberId id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

}  // namespace

QuorumGroup::QuorumGroup(DurabilityEngine& source, QuorumOptions options)
    : shipper_(source), options_(options) {
  require(options_.replicas >= 1, "a quorum group needs at least one member");
  members_.reserve(options_.replicas);
  for (std::uint32_t i = 0; i < options_.replicas; ++i) {
    append_member();
    old_voters_.push_back(i);
  }
  new_voters_ = old_voters_;
  leader_ = 0;  // election by construction: lowest id, everyone live
}

void QuorumGroup::append_member() {
  Member m;
  m.replica.attach_engine(make_memory_engine(options_.member_durability));
  members_.push_back(std::move(m));
}

QuorumGroup::Member& QuorumGroup::member_ref(MemberId id) {
  require(id < members_.size(), "quorum member id out of range");
  return members_[id];
}

const QuorumGroup::Member& QuorumGroup::member_at(MemberId id) const {
  require(id < members_.size(), "quorum member id out of range");
  return members_[id];
}

std::size_t QuorumGroup::step_member(Member& m, std::size_t budget) {
  if (m.needs_full_copy || budget == 0) return 0;

  DurabilityEngine& engine = shipper_.engine();
  switch (shipper_.next_batch(m.replica.cursor(), budget, batch_)) {
    case ShipStatus::kUpToDate:
      return 0;
    case ShipStatus::kRebase: {
      m.replica.rebase(engine.journal_generation(), engine.rebase_epoch());
      engine.note_ship_rebase();
      ++stats_.rebases;
      // The rebase moved no bytes; the fresh generation's tail (if any)
      // ships in this same slot.
      if (shipper_.next_batch(m.replica.cursor(), budget, batch_) !=
          ShipStatus::kBatch) {
        return 0;
      }
      break;
    }
    case ShipStatus::kCursorLost:
      m.needs_full_copy = true;
      ++stats_.fallbacks;
      engine.note_ship_fallback();
      return 0;
    case ShipStatus::kBatch:
      break;
  }

  const std::size_t bytes = batch_.bytes.size();
  switch (m.replica.apply(batch_)) {
    case ApplyStatus::kApplied:
      m.consecutive_corrupt = 0;
      ++stats_.batches_shipped;
      stats_.bytes_shipped += bytes;
      return bytes;
    case ApplyStatus::kCorrupt:
      ++stats_.corrupt_batches;
      if (++m.consecutive_corrupt >= kMaxCorruptRetries) {
        // The same source bytes failed repeatedly: the journal itself is
        // damaged in the shipped range. Only a full copy can converge.
        m.needs_full_copy = true;
        ++stats_.fallbacks;
        engine.note_ship_fallback();
      }
      return 0;
    case ApplyStatus::kDuplicate:
    case ApplyStatus::kGap:
    case ApplyStatus::kBadGeneration:
      // The shipper reads at the member's own cursor, so none of these can
      // occur in-group; treat as a protocol bug.
      ensure(false, "quorum group produced an unappliable batch");
      return 0;
  }
  return 0;
}

std::size_t QuorumGroup::pump_member(MemberId id, std::size_t budget) {
  Member& m = member_ref(id);
  ++stats_.slots_polled;
  // A fail-stopped member cannot receive; a retired one no longer ships.
  // Its slot goes idle — TDMA bandwidth is static by construction.
  if (!m.live || m.retired) return 0;
  const std::size_t moved = step_member(m, budget);
  m.last_applied = m.replica.cursor().epoch;
  update_commit();
  return moved;
}

std::size_t QuorumGroup::catch_up_member(MemberId id) {
  Member& m = member_ref(id);
  if (!m.live || m.retired) return 0;
  std::size_t total = 0;
  while (true) {
    const std::size_t moved = step_member(m, kCatchUpChunk);
    if (moved == 0) break;
    total += moved;
  }
  m.last_applied = m.replica.cursor().epoch;
  update_commit();
  return total;
}

QuorumGroup::Round QuorumGroup::ship_round(const StableStorage& source_store,
                                           std::size_t slot_bytes) {
  DurabilityEngine& engine = shipper_.engine();
  Round round;
  for (MemberId id = 0; id < members_.size(); ++id) {
    round.bytes += slot_bytes == kCatchUp ? catch_up_member(id)
                                          : pump_member(id, slot_bytes);
    const Member& m = members_[id];
    if (m.live && !m.retired && m.needs_full_copy) {
      reseed_member(id, source_store, engine.dictionary(),
                    engine.journal_generation(),
                    engine.journal().synced_size());
      ++round.reseeds;
    }
  }
  return round;
}

bool QuorumGroup::member_needs_full_copy(MemberId id) const {
  return member_at(id).needs_full_copy;
}

void QuorumGroup::reseed_member(MemberId id, const StableStorage& source_store,
                                std::span<const std::string> dict,
                                std::uint64_t generation,
                                std::uint64_t offset) {
  Member& m = member_ref(id);
  m.replica.reset_from_full_copy(source_store, dict, generation, offset);
  m.needs_full_copy = false;
  m.consecutive_corrupt = 0;
  m.warm_credit = false;  // this member's warmth was bought, not streamed
  m.last_applied = m.replica.cursor().epoch;
  ++stats_.reseeds;
  // Lossy-recovery rebase. Normally the commit id is monotone — within one
  // history, a majority-acknowledged epoch never un-commits. But when the
  // copy's boundary sits BELOW the commit id, the source rewrote history
  // (a lossy recovery truncated synced records and bumped the journal
  // generation; the system raised kLossyRecovery for it): epochs beyond the
  // boundary no longer exist in any live generation. Old and new history
  // agree below the boundary, so a member still on a dead generation
  // durably holds the common prefix — its ack clamps to the boundary rather
  // than voiding entirely — and the commit id re-bases onto the recomputed
  // majority instead of pinning a vanished epoch.
  const std::uint64_t boundary = m.last_applied;
  if (boundary < commit_id_) {
    for (Member& other : members_) {
      if (other.replica.cursor().generation != generation &&
          other.last_applied > boundary) {
        other.last_applied = boundary;
      }
    }
    std::uint64_t rebased = majority_ack(old_voters_);
    if (reconfiguring_) {
      rebased = std::min(rebased, majority_ack(new_voters_));
    }
    commit_id_ = std::min(commit_id_, rebased);
  }
  update_commit();
}

bool QuorumGroup::take_warm_credit(MemberId id) {
  Member& m = member_ref(id);
  const bool credit = m.warm_credit;
  m.warm_credit = true;
  return credit;
}

bool QuorumGroup::fail_member(MemberId id) {
  Member& m = member_ref(id);
  require(!m.retired, "cannot fail-stop a retired member");
  if (!m.live) return false;
  const bool before = has_majority();
  m.live = false;
  ++stats_.member_failures;
  elect();
  return before && !has_majority();
}

bool QuorumGroup::repair_member(MemberId id) {
  Member& m = member_ref(id);
  require(!m.retired, "cannot repair a retired member");
  if (m.live) return false;
  const bool before = has_majority();
  m.live = true;
  ++stats_.member_repairs;
  elect();
  return !before && has_majority();
}

std::vector<MemberId> QuorumGroup::begin_reconfig(
    std::uint32_t add, const std::vector<MemberId>& retire) {
  require(!reconfiguring_, "a membership change is already in flight");
  for (const MemberId id : retire) {
    require(contains(old_voters_, id), "retiree is not a current voter");
  }
  new_voters_.clear();
  for (const MemberId id : old_voters_) {
    if (!contains(retire, id)) new_voters_.push_back(id);
  }
  std::vector<MemberId> added;
  for (std::uint32_t i = 0; i < add; ++i) {
    const auto id = static_cast<MemberId>(members_.size());
    append_member();
    // A fresh member holds nothing: it joins via the full-copy path and
    // streams from there, exactly like a lost-cursor fallback.
    members_.back().needs_full_copy = true;
    added.push_back(id);
    new_voters_.push_back(id);
  }
  require(!new_voters_.empty(), "membership change would empty the group");
  reconfig_epoch_ = commit_id_;
  reconfiguring_ = true;
  // May complete immediately — e.g. a retire-only change whose survivors
  // already hold everything committed at proposal time.
  update_commit();
  return added;
}

bool QuorumGroup::has_majority() const {
  const auto live_majority = [this](const std::vector<MemberId>& voters) {
    std::size_t live = 0;
    for (const MemberId id : voters) {
      if (members_[id].live) ++live;
    }
    return live * 2 > voters.size();
  };
  if (!live_majority(old_voters_)) return false;
  return !reconfiguring_ || live_majority(new_voters_);
}

std::vector<MemberId> QuorumGroup::warm_start_order() const {
  std::vector<MemberId> order;
  if (leader_.has_value()) order.push_back(*leader_);
  for (MemberId id = 0; id < members_.size(); ++id) {
    const Member& m = members_[id];
    if (m.live && !m.retired && id != leader_) order.push_back(id);
  }
  return order;
}

std::uint32_t QuorumGroup::live_count() const {
  std::uint32_t live = 0;
  for (const Member& m : members_) {
    if (m.live && !m.retired) ++live;
  }
  return live;
}

bool QuorumGroup::member_live(MemberId id) const {
  return member_at(id).live;
}

bool QuorumGroup::member_retired(MemberId id) const {
  return member_at(id).retired;
}

std::uint64_t QuorumGroup::last_applied(MemberId id) const {
  return member_at(id).last_applied;
}

const ShippedReplica& QuorumGroup::replica(MemberId id) const {
  return member_at(id).replica;
}

std::uint64_t QuorumGroup::majority_ack(const std::vector<MemberId>& voters) {
  ack_scratch_.clear();
  for (const MemberId id : voters) {
    ack_scratch_.push_back(members_[id].last_applied);
  }
  std::sort(ack_scratch_.begin(), ack_scratch_.end(), std::greater<>());
  // Descending order statistic at |S|/2: the highest epoch held by a strict
  // majority. Dead members' acks count (their stable devices survive).
  return ack_scratch_[ack_scratch_.size() / 2];
}

void QuorumGroup::update_commit() {
  std::uint64_t candidate = majority_ack(old_voters_);
  if (reconfiguring_) {
    candidate = std::min(candidate, majority_ack(new_voters_));
  }
  if (candidate > commit_id_) {
    commit_id_ = candidate;
    ++stats_.commit_advances;
  }
  if (reconfiguring_ && majority_ack(new_voters_) >= reconfig_epoch_) {
    // The new voters durably cover everything committed when the change was
    // proposed (the old majority covered it by definition): collapse to the
    // new configuration and drop the retirees from the protocol.
    for (MemberId id = 0; id < members_.size(); ++id) {
      Member& m = members_[id];
      if (!m.retired && !contains(new_voters_, id)) m.retired = true;
    }
    old_voters_ = new_voters_;
    reconfiguring_ = false;
    ++stats_.membership_changes;
    elect();
  }
}

void QuorumGroup::elect() {
  std::optional<MemberId> next;
  for (MemberId id = 0; id < members_.size(); ++id) {
    const Member& m = members_[id];
    if (m.live && !m.retired) {
      next = id;
      break;
    }
  }
  if (next != leader_) {
    leader_ = next;
    ++stats_.elections;
  }
}

void QuorumGroup::restore_state(const QuorumGroup& source) {
  // Shed the members the source does not have, grow the ones it has beyond
  // this roster.
  if (members_.size() > source.members_.size()) {
    members_.resize(source.members_.size());
  }
  while (members_.size() < source.members_.size()) append_member();
  for (MemberId id = 0; id < source.members_.size(); ++id) {
    Member& m = members_[id];
    const Member& from = source.members_[id];
    m.replica.restore_state(from.replica);
    m.last_applied = from.last_applied;
    m.live = from.live;
    m.retired = from.retired;
    m.needs_full_copy = from.needs_full_copy;
    m.warm_credit = from.warm_credit;
    m.consecutive_corrupt = from.consecutive_corrupt;
  }
  old_voters_ = source.old_voters_;
  new_voters_ = source.new_voters_;
  reconfiguring_ = source.reconfiguring_;
  reconfig_epoch_ = source.reconfig_epoch_;
  commit_id_ = source.commit_id_;
  leader_ = source.leader_;
  stats_ = source.stats_;
}

MemberView QuorumGroup::member_view(MemberId id) const {
  const Member& m = member_at(id);
  return {.replica = m.replica.view(),
          .last_applied = m.last_applied,
          .live = m.live,
          .retired = m.retired,
          .needs_full_copy = m.needs_full_copy,
          .warm_credit = m.warm_credit,
          .consecutive_corrupt = m.consecutive_corrupt};
}

QuorumView QuorumGroup::view() const {
  return {.members = members_.size(),
          .old_voters = old_voters_,
          .new_voters = new_voters_,
          .reconfiguring = reconfiguring_,
          .reconfig_epoch = reconfig_epoch_,
          .commit_id = commit_id_,
          .leader = leader_,
          .stats = &stats_};
}

}  // namespace arfs::storage::durable::quorum
