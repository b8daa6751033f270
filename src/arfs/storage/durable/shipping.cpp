#include "arfs/storage/durable/shipping.hpp"

#include <algorithm>
#include <utility>

#include "arfs/common/check.hpp"
#include "arfs/storage/durable/wire.hpp"

namespace arfs::storage::durable {

namespace {

std::uint32_t read_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

void encode_batch(std::vector<std::uint8_t>& out, const ShipBatch& batch) {
  put_u64(out, batch.generation);
  put_u64(out, batch.offset);
  put_u32(out, static_cast<std::uint32_t>(batch.bytes.size()));
  out.insert(out.end(), batch.bytes.begin(), batch.bytes.end());
  put_u32(out, batch.crc);
}

std::optional<ShipBatch> decode_batch(const std::uint8_t* data,
                                      std::size_t n) {
  ByteReader reader(data, n);
  ShipBatch batch;
  batch.generation = reader.u64();
  batch.offset = reader.u64();
  const std::uint32_t len = reader.u32();
  constexpr std::size_t kFrameHeader = 8 + 8 + 4;  // generation, offset, len
  if (!reader.ok() || len > kMaxPayload ||
      n < kFrameHeader + std::size_t{len} + 4) {
    return std::nullopt;
  }
  batch.bytes.assign(data + kFrameHeader, data + kFrameHeader + len);
  batch.crc = read_u32(data + kFrameHeader + len);
  return batch;
}

ShipStatus JournalShipper::next_batch(const ShipCursor& cursor,
                                      std::size_t max_bytes, ShipBatch& out) {
  DurabilityEngine& engine = *engine_;
  const std::uint64_t generation = engine.journal_generation();

  if (cursor.generation == generation) {
    // Only synced bytes ship: the replica must never hold state the
    // source's devices would not preserve across a crash.
    const std::uint64_t end = engine.journal().synced_size();
    if (cursor.offset >= end) {
      engine.note_ship(0, 0, cursor.offset);
      return ShipStatus::kUpToDate;
    }
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(max_bytes, end - cursor.offset));
    if (n == 0) return ShipStatus::kUpToDate;
    out.generation = generation;
    out.offset = cursor.offset;
    out.bytes.resize(n);
    const std::size_t got =
        engine.journal().read(cursor.offset, out.bytes.data(), n);
    require(got == n, "journal refused a synced-range read");
    out.crc = crc32(out.bytes.data(), n);
    engine.note_ship(n, end - (cursor.offset + n), cursor.offset + n);
    return ShipStatus::kBatch;
  }

  if (cursor.generation + 1 == generation) {
    // One compaction behind: serve the retained previous generation.
    const std::vector<std::uint8_t>& tail = engine.retained_tail();
    const std::uint64_t end = kHeaderSize + tail.size();
    if (cursor.offset < end) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(max_bytes, end - cursor.offset));
      if (n == 0) return ShipStatus::kUpToDate;
      out.generation = cursor.generation;
      out.offset = cursor.offset;
      const std::size_t at =
          static_cast<std::size_t>(cursor.offset - kHeaderSize);
      out.bytes.assign(tail.begin() + static_cast<std::ptrdiff_t>(at),
                       tail.begin() + static_cast<std::ptrdiff_t>(at + n));
      out.crc = crc32(out.bytes.data(), n);
      engine.note_ship(n, end - (cursor.offset + n), 0);
      return ShipStatus::kBatch;
    }
    if (engine.rebase_ok()) return ShipStatus::kRebase;
    return ShipStatus::kCursorLost;
  }

  return ShipStatus::kCursorLost;
}

void ShippedReplica::attach_engine(
    std::unique_ptr<DurabilityEngine> engine) {
  require(engine != nullptr, "null standby engine");
  require(engine_ == nullptr, "standby engine already attached");
  engine_ = std::move(engine);
}

ApplyStatus ShippedReplica::apply(const ShipBatch& batch) {
  if (batch.generation != cursor_.generation) {
    return ApplyStatus::kBadGeneration;
  }
  if (crc32(batch.bytes.data(), batch.bytes.size()) != batch.crc) {
    ++stats_.crc_rejects;
    return ApplyStatus::kCorrupt;  // transit corruption; nothing consumed
  }
  const std::uint64_t end = batch.offset + batch.bytes.size();
  if (end <= cursor_.offset) {
    ++stats_.duplicates;
    return ApplyStatus::kDuplicate;
  }
  if (batch.offset > cursor_.offset) {
    ++stats_.gaps;
    return ApplyStatus::kGap;
  }
  // Append only the genuinely new suffix (overlap = partial retransmission).
  const std::size_t skip =
      static_cast<std::size_t>(cursor_.offset - batch.offset);
  pending_.insert(pending_.end(), batch.bytes.begin() + skip,
                  batch.bytes.end());
  const std::size_t appended = batch.bytes.size() - skip;
  cursor_.offset += appended;
  stats_.bytes_received += appended;
  ++stats_.batches_applied;
  if (!drain_pending()) return ApplyStatus::kCorrupt;
  return ApplyStatus::kApplied;
}

bool ShippedReplica::drain_pending() {
  std::size_t p = 0;
  bool corrupt = false;
  while (pending_.size() - p >= 8) {
    const std::uint32_t len = read_u32(pending_.data() + p);
    const std::uint32_t crc = read_u32(pending_.data() + p + 4);
    if (len > kMaxPayload) {
      corrupt = true;
      break;
    }
    if (pending_.size() - p - 8 < len) break;  // partial record; wait
    const std::uint8_t* payload = pending_.data() + p + 8;
    if (crc32(payload, len) != crc || !apply_record(payload, len)) {
      corrupt = true;
      break;
    }
    p += 8 + std::size_t{len};
  }
  if (corrupt) {
    // The good prefix stays applied; the corrupt suffix is dropped and the
    // cursor rewinds to the last record boundary so a clean retransmission
    // can retry from there.
    ++stats_.crc_rejects;
    cursor_.offset -= pending_.size() - p;
    pending_.clear();
    return false;
  }
  pending_.erase(pending_.begin(), pending_.begin() + static_cast<std::ptrdiff_t>(p));
  return true;
}

bool ShippedReplica::apply_record(const std::uint8_t* payload,
                                 std::size_t len) {
  ByteReader reader(payload, len);
  const std::uint8_t kind = reader.u8();
  if (kind == kRecordDict) {
    const std::uint64_t first_id = reader.varint();
    const std::uint64_t count = reader.varint();
    if (!reader.ok() || first_id > dict_.size() || count > kMaxPayload) {
      return false;
    }
    // Overlap is legal after a full-copy reset (the copied dictionary may
    // already cover ids whose dictionary records were un-synced at copy
    // time and ship later) — but an overlapping id must re-announce the
    // same key.
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::string_view key = reader.string_view();
      if (!reader.ok()) return false;
      const std::uint64_t id = first_id + i;
      if (id < dict_.size()) {
        if (dict_[id] != key) return false;
      } else {
        dict_.push_back(key);
      }
    }
    if (!reader.exhausted()) return false;
    ++stats_.dict_records;
    return true;
  }
  if (kind == kRecordCommit) {
    const std::uint64_t epoch = reader.u64();
    const auto cycle = static_cast<Cycle>(reader.u64());
    const std::uint32_t n = reader.u32();
    // A count the payload cannot hold is malformed before anything is
    // sized by it.
    if (n > reader.remaining() / kMinCommitEntryBytes) return false;
    entries_.clear();
    for (std::uint32_t i = 0; i < n && reader.ok(); ++i) {
      const std::uint64_t id = reader.varint();
      if (id >= dict_.size()) return false;
      entries_.emplace_back(static_cast<std::uint32_t>(id), reader.value());
    }
    if (!reader.ok() || !reader.exhausted()) return false;
    if (epoch <= cursor_.epoch) {
      // Replay duplicate (already covered by a full copy or rebase image).
      ++stats_.records_skipped;
      return true;
    }
    apply_commit(epoch, cycle);
    return true;
  }
  return false;
}

void ShippedReplica::apply_commit(std::uint64_t epoch, Cycle cycle) {
  if (engine_ != nullptr) {
    // Standby write-ahead: journal into the standby's own devices with the
    // source's epoch numbering, then commit — the standby survives its own
    // crashes with the same guarantees as the source.
    store_.set_commit_epochs(epoch - 1);
    for (auto& [id, value] : entries_) {
      store_.write(keys_.key(store_, dict_.names(), id), std::move(value));
    }
    engine_->record_commit(store_, cycle);
    store_.commit(cycle);
    engine_->after_commit(store_);
  } else {
    for (auto& [id, value] : entries_) {
      store_.restore(keys_.key(store_, dict_.names(), id), std::move(value),
                     cycle);
    }
    store_.set_commit_epochs(epoch);
  }
  cursor_.epoch = epoch;
  ++stats_.records_applied;
}

void ShippedReplica::rebase(std::uint64_t generation, std::uint64_t epoch) {
  require(pending_.empty(),
          "rebase with a partial record pending (not caught up)");
  cursor_.generation = generation;
  cursor_.offset = kHeaderSize;
  cursor_.epoch = std::max(cursor_.epoch, epoch);
  // The snapshot image the compaction was based on stamps the source store
  // at `epoch` (trailing empty commits included); mirror it so post-rebase
  // records extend the same numbering.
  if (epoch > store_.commit_epochs()) store_.set_commit_epochs(epoch);
  dict_.clear();
  keys_.clear();
  ++stats_.rebases;
}

void ShippedReplica::reset_from_full_copy(const StableStorage& source,
                                          std::span<const std::string> dict,
                                          std::uint64_t generation,
                                          std::uint64_t offset) {
  store_.reset_committed();
  store_.restore_batch(source.committed_entries());
  store_.set_commit_epochs(source.commit_epochs());
  dict_.assign(dict);
  keys_.clear();
  pending_.clear();
  // A journal that has never synced has not even its header on the device
  // (synced_size() == 0), but its stream still starts past the header: a
  // cursor below kHeaderSize would ship the header as record bytes.
  cursor_ = ShipCursor{generation, std::max(offset, kHeaderSize),
                       source.commit_epochs()};
  // The stream starts over: warm-progress counters would otherwise keep
  // counting bytes and records the reseed just invalidated, inflating the
  // avoided-full-copy accounting. Fault counters (crc_rejects, duplicates,
  // gaps, rebases, resets) stay cumulative — they describe the lifetime of
  // the standby, not of one stream.
  stats_.batches_applied = 0;
  stats_.bytes_received = 0;
  stats_.records_applied = 0;
  stats_.records_skipped = 0;
  stats_.dict_records = 0;
  ++stats_.resets;
  if (engine_ != nullptr) {
    // Re-anchor the standby devices on the copied image so its own journal
    // does not mix generations.
    (void)engine_->take_snapshot(store_);
  }
}

void ShippedReplica::restore_state(const ShippedReplica& source) {
  require((engine_ != nullptr) == (source.engine_ != nullptr),
          "replica restore must match its attached-engine shape");
  store_ = source.store_;
  if (engine_ != nullptr) engine_->restore_state(*source.engine_);
  dict_ = source.dict_;
  keys_.clear();
  pending_ = source.pending_;
  cursor_ = source.cursor_;
  stats_ = source.stats_;
}

ReplicaView ShippedReplica::view() const {
  return {.store = &store_,
          .engine = engine_ != nullptr ? std::optional(engine_->view())
                                       : std::nullopt,
          .dict = dict_.names(),
          .pending = pending_,
          .cursor = cursor_};
}

std::uint64_t encoded_state_bytes(const StableStorage& store,
                                  const std::string& prefix) {
  // Counted from the wire format, nothing encoded: per entry a u32 length
  // and the key, the tagged value, and a u64 cycle.
  std::uint64_t total = 0;
  store.for_each_committed(
      [&](const std::string& key, const Value& value, Cycle) {
        if (!key.starts_with(prefix)) return;
        total += 4 + key.size() + value_wire_bytes(value) + 8;
      });
  return total;
}

}  // namespace arfs::storage::durable
