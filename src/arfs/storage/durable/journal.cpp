#include "arfs/storage/durable/journal.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "arfs/storage/durable/wire.hpp"

namespace arfs::storage::durable {

// --- NamePool ---

NamePool::NamePool(const NamePool& other)
    : slots_(other.names().begin(), other.names().end()),
      size_(other.size_) {}

NamePool& NamePool::operator=(const NamePool& other) {
  if (this != &other) assign(other.names());
  return *this;
}

void NamePool::push_back(std::string_view name) {
  if (size_ < slots_.size()) {
    slots_[size_].assign(name);  // reuses the spare string's storage
  } else {
    slots_.emplace_back(name);
  }
  ++size_;
}

void NamePool::assign(std::span<const std::string> names) {
  size_ = 0;
  for (const std::string& name : names) push_back(name);
}

// --- KeyInterner ---

KeyInterner::KeyInterner(const KeyInterner& other)
    : keys_(other.keys_), sorted_(other.sorted_), fresh_(other.fresh_) {}

KeyInterner& KeyInterner::operator=(const KeyInterner& other) {
  if (this == &other) return *this;
  keys_ = other.keys_;
  sorted_ = other.sorted_;
  fresh_ = other.fresh_;
  by_key_.clear();
  return *this;
}

std::size_t KeyInterner::lower_bound(std::string_view key) const {
  return static_cast<std::size_t>(
      std::partition_point(sorted_.begin(), sorted_.end(),
                           [&](std::uint32_t id) { return keys_[id] < key; }) -
      sorted_.begin());
}

std::uint32_t KeyInterner::add(std::string_view key, std::size_t pos) {
  const auto id = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(key);
  sorted_.insert(sorted_.begin() + static_cast<std::ptrdiff_t>(pos), id);
  return id;
}

std::uint32_t KeyInterner::intern(std::string_view key) {
  const std::size_t pos = lower_bound(key);
  if (pos < sorted_.size() && keys_[sorted_[pos]] == key) return sorted_[pos];
  ++fresh_;
  return add(key, pos);
}

std::uint32_t KeyInterner::intern(const StableStorage& store, KeyId key) {
  const std::string& name = store.key_name(key);
  const std::size_t slot = key.value();
  if (slot < by_key_.size() && by_key_[slot] != 0) {
    // One comparison guards against an entry made for another store.
    const std::uint32_t id = by_key_[slot] - 1;
    if (id < keys_.size() && keys_[id] == name) return id;
  }
  const std::uint32_t id = intern(name);
  if (slot >= by_key_.size()) by_key_.resize(slot + 1, 0);
  by_key_[slot] = id + 1;
  return id;
}

std::span<const std::uint32_t> KeyInterner::intern_pending(
    const StableStorage& store) {
  pending_ids_.clear();
  for (const KeyId key : store.pending()) {
    pending_ids_.push_back(intern(store, key));
  }
  return pending_ids_;
}

void KeyInterner::append(std::string_view key) {
  // After any equal names, so a lookup finds the lowest id of a duplicate.
  const auto pos = static_cast<std::size_t>(
      std::partition_point(sorted_.begin(), sorted_.end(),
                           [&](std::uint32_t id) { return keys_[id] <= key; }) -
      sorted_.begin());
  (void)add(key, pos);
}

void KeyInterner::reset() {
  keys_.clear();
  sorted_.clear();
  fresh_ = 0;
  by_key_.clear();
}

bool ensure_header(JournalBackend& backend) {
  if (backend.size() == 0) {
    backend.append(kJournalMagic, sizeof kJournalMagic);
    return true;
  }
  std::uint8_t magic[8] = {};
  if (backend.read(0, magic, sizeof magic) != sizeof magic) return false;
  return std::memcmp(magic, kJournalMagic, sizeof magic) == 0;
}

void encode_commit(std::vector<std::uint8_t>& out, KeyInterner& dict,
                   std::uint64_t epoch, Cycle cycle,
                   const StableStorage& store) {
  // Intern every key first, once, so one dictionary record covers the
  // whole commit.
  const std::uint32_t first_fresh =
      static_cast<std::uint32_t>(dict.size() - dict.fresh().size());
  const std::vector<KeyId>& pending = store.pending();
  const std::span<const std::uint32_t> ids = dict.intern_pending(store);
  if (!dict.fresh().empty()) {
    const std::size_t env = open_envelope(out);
    put_u8(out, kRecordDict);
    put_varint(out, first_fresh);
    put_varint(out, dict.fresh().size());
    for (const std::string& key : dict.fresh()) put_string(out, key);
    close_envelope(out, env);
    dict.take_fresh();
  }
  const std::size_t env = open_envelope(out);
  put_u8(out, kRecordCommit);
  put_u64(out, epoch);
  put_u64(out, cycle);
  put_u32(out, static_cast<std::uint32_t>(pending.size()));
  for (std::size_t i = 0; i < pending.size(); ++i) {
    put_varint(out, ids[i]);
    put_value(out, store.pending_value(pending[i]));
  }
  close_envelope(out, env);
}

namespace {

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

/// How a journal walk ended.
struct WalkEnd {
  bool header_ok = false;
  std::uint64_t valid_bytes = 0;
  bool truncated = false;
  const char* reason = "";
};

/// The one journal scanner. It checks the header, then every record in
/// order, and stops at the first record that is torn, fails its CRC, is
/// malformed, references an unknown key id or breaks epoch monotonicity.
/// It tells `sink`:
///  * dict_name(name) for each name of a dictionary record as it is
///    decoded (a record found malformed afterwards has reported its names
///    already, so recovery's rebuilt dictionary holds them too);
///  * dict_record(offset, first_id, count) once that record is valid;
///  * commit(offset, epoch, cycle, n, entries) once a commit record is
///    valid, where `entries` reads its n (varint id, value) pairs.
/// Payloads are read into `payload`, the caller's reused buffer.
template <class Sink>
WalkEnd walk_journal(const JournalBackend& backend,
                     std::vector<std::uint8_t>& payload, ScanStats* stats,
                     Sink& sink) {
  WalkEnd end;
  const std::uint64_t total = backend.size();
  if (total == 0) {
    // A never-written device is a valid empty journal.
    end.header_ok = true;
    return end;
  }
  std::uint8_t magic[8] = {};
  if (backend.read(0, magic, sizeof magic) != sizeof magic ||
      std::memcmp(magic, kJournalMagic, sizeof magic) != 0) {
    end.reason = "bad or short journal header";
    end.truncated = true;
    return end;
  }
  end.header_ok = true;
  end.valid_bytes = kHeaderSize;

  const auto stop = [&end](const char* reason) {
    end.truncated = true;
    end.reason = reason;
  };
  std::uint64_t offset = kHeaderSize;
  std::uint64_t last_epoch = 0;
  std::uint64_t dict_size = 0;
  while (offset < total) {
    std::uint8_t envelope[8] = {};
    if (backend.read(offset, envelope, sizeof envelope) != sizeof envelope) {
      stop("torn record envelope");
      break;
    }
    const std::uint32_t len = get_u32(envelope);
    const std::uint32_t crc = get_u32(envelope + 4);
    if (len > kMaxPayload) {
      stop("implausible record length (corrupt length prefix)");
      break;
    }
    if (stats != nullptr) {
      // Reuse = the read fits the scratch buffer's existing capacity, so
      // resize() below touches no allocator (mirror of the encode-path
      // scratch accounting).
      if (len <= payload.capacity()) {
        ++stats->payload_reuses;
      } else {
        ++stats->payload_allocs;
      }
    }
    payload.resize(len);
    if (backend.read(offset + 8, payload.data(), len) != len) {
      stop("torn record payload");
      break;
    }
    if (crc32(payload.data(), len) != crc) {
      stop("record CRC mismatch");
      break;
    }
    ByteReader reader(payload.data(), len);
    const std::uint8_t kind = reader.u8();
    if (kind == kRecordDict) {
      const std::uint64_t first_id = reader.varint();
      const std::uint64_t count = reader.varint();
      // Ids must extend the dictionary contiguously; anything else means the
      // record belongs to a different journal generation.
      if (!reader.ok() || first_id != dict_size || count > kMaxPayload) {
        stop("malformed dictionary record");
        break;
      }
      for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
        sink.dict_name(reader.string_view());
        ++dict_size;
      }
      if (!reader.exhausted()) {
        stop("malformed dictionary record");
        break;
      }
      sink.dict_record(offset, static_cast<std::uint32_t>(first_id),
                       static_cast<std::uint32_t>(count));
    } else if (kind == kRecordCommit) {
      const std::uint64_t epoch = reader.u64();
      const Cycle cycle = reader.u64();
      const std::uint32_t n = reader.u32();
      // A count the payload cannot hold is malformed before anything is
      // sized by it.
      if (n > reader.remaining() / kMinCommitEntryBytes) {
        stop("malformed record payload");
        break;
      }
      const ByteReader entries = reader;
      bool bad_id = false;
      for (std::uint32_t i = 0; i < n && reader.ok(); ++i) {
        if (reader.varint() >= dict_size) {
          bad_id = true;
          break;
        }
        reader.skip_value();
      }
      if (bad_id || !reader.exhausted()) {
        stop(bad_id ? "commit references unknown key id"
                    : "malformed record payload");
        break;
      }
      if (epoch <= last_epoch) {
        stop("non-monotone commit epoch");
        break;
      }
      last_epoch = epoch;
      sink.commit(offset, epoch, cycle, n, entries);
    } else {
      stop("unknown record kind");
      break;
    }
    offset += 8 + len;
    end.valid_bytes = offset;
  }
  return end;
}

/// scan_journal's sink: materializes every record and the dictionary.
struct ScanSink {
  ScanResult& result;

  void dict_name(std::string_view name) { result.dict.emplace_back(name); }
  void dict_record(std::uint64_t offset, std::uint32_t first_id,
                   std::uint32_t count) {
    result.dict_records.push_back(DictRecordInfo{offset, first_id, count});
  }
  void commit(std::uint64_t offset, std::uint64_t epoch, Cycle cycle,
              std::uint32_t n, ByteReader entries) {
    JournalRecord record;
    record.offset = offset;
    record.epoch = epoch;
    record.cycle = cycle;
    record.entries.reserve(n);
    record.entry_ids.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint32_t>(entries.varint());
      record.entries.emplace_back(result.dict[id], entries.value());
      record.entry_ids.push_back(id);
    }
    result.records.push_back(std::move(record));
  }
};

/// replay_journal's sink: restores commits into the store as they pass.
struct ReplaySink {
  std::uint64_t after_epoch;
  StableStorage& out;
  KeyInterner& dict;
  DictKeyMap& keys;
  JournalReplay& replay;

  void dict_name(std::string_view name) { dict.append(name); }
  void dict_record(std::uint64_t, std::uint32_t, std::uint32_t) {}
  void commit(std::uint64_t, std::uint64_t epoch, Cycle cycle,
              std::uint32_t n, ByteReader entries) {
    if (epoch <= after_epoch) {
      ++replay.records_skipped;
      return;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto id = static_cast<std::uint32_t>(entries.varint());
      out.restore(keys.key(out, dict.names(), id), entries.value(), cycle);
    }
    replay.last_epoch = epoch;
    ++replay.records_applied;
  }
};

}  // namespace

KeyId DictKeyMap::key(StableStorage& store,
                      std::span<const std::string> names, std::uint32_t id) {
  if (ids_.size() < names.size()) ids_.resize(names.size(), kUnresolved);
  std::uint32_t& key = ids_[id];
  if (key == kUnresolved) key = store.intern(names[id]).value();
  return KeyId{key};
}

ScanResult scan_journal(const JournalBackend& backend) {
  ScanResult result;
  ScanSink sink{result};
  std::vector<std::uint8_t> payload;
  const WalkEnd end = walk_journal(backend, payload, nullptr, sink);
  result.header_ok = end.header_ok;
  result.valid_bytes = end.valid_bytes;
  result.truncated = end.truncated;
  result.reason = end.reason;
  return result;
}

JournalReplay replay_journal(const JournalBackend& backend,
                             std::uint64_t after_epoch, StableStorage& out,
                             KeyInterner& dict,
                             std::vector<std::uint8_t>& payload,
                             DictKeyMap& keys, ScanStats* stats) {
  JournalReplay replay;
  replay.last_epoch = after_epoch;
  dict.reset();
  keys.clear();
  ReplaySink sink{after_epoch, out, dict, keys, replay};
  const WalkEnd end = walk_journal(backend, payload, stats, sink);
  replay.valid_bytes = end.valid_bytes;
  replay.truncated = end.truncated;
  replay.reason = end.reason;
  return replay;
}

std::string to_string(const JournalRecord& record) {
  std::ostringstream os;
  os << "@" << record.offset << " epoch " << record.epoch << " cycle "
     << record.cycle << " (" << record.entries.size() << " keys)";
  for (const auto& [key, value] : record.entries) {
    os << "\n    " << key << " = " << storage::to_string(value) << " ["
       << type_name(value) << "]";
  }
  return os.str();
}

}  // namespace arfs::storage::durable
