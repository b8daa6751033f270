#include "arfs/storage/durable/journal.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "arfs/storage/durable/wire.hpp"

namespace arfs::storage::durable {

std::uint32_t KeyInterner::intern(const std::string& key) {
  const auto it = std::lower_bound(
      index_.begin(), index_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it != index_.end() && it->first == key) return it->second;
  const auto id = static_cast<std::uint32_t>(keys_.size());
  keys_.push_back(key);
  fresh_.push_back(key);
  index_.insert(it, {key, id});
  return id;
}

void KeyInterner::adopt(const std::vector<std::string>& keys) {
  reset();
  keys_ = keys;
  index_.reserve(keys_.size());
  for (std::uint32_t id = 0; id < keys_.size(); ++id) {
    index_.emplace_back(keys_[id], id);
  }
  std::sort(index_.begin(), index_.end());
}

void KeyInterner::reset() {
  keys_.clear();
  index_.clear();
  fresh_.clear();
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

namespace {

/// Reserves an 8-byte [len][crc] envelope at the end of `out` and returns
/// its position; close_envelope() back-patches it once the payload follows.
std::size_t open_envelope(std::vector<std::uint8_t>& out) {
  const std::size_t env = out.size();
  out.resize(env + 8);
  return env;
}

void close_envelope(std::vector<std::uint8_t>& out, std::size_t env) {
  const std::size_t payload = env + 8;
  const auto len = static_cast<std::uint32_t>(out.size() - payload);
  patch_u32(out, env, len);
  patch_u32(out, env + 4, crc32(out.data() + payload, len));
}

}  // namespace

void encode_commit(std::vector<std::uint8_t>& out, KeyInterner& dict,
                   std::uint64_t epoch, Cycle cycle,
                   const StableStorage& store) {
  // Intern every key first so one dictionary record covers the whole commit.
  const std::uint32_t first_fresh =
      static_cast<std::uint32_t>(dict.size() - dict.fresh().size());
  for (const KeyId id : store.pending()) {
    (void)dict.intern(store.key_name(id));
  }
  if (!dict.fresh().empty()) {
    const std::size_t env = open_envelope(out);
    put_u8(out, kRecordDict);
    put_varint(out, first_fresh);
    put_varint(out, dict.fresh().size());
    for (const auto& key : dict.fresh()) put_string(out, key);
    close_envelope(out, env);
    dict.take_fresh();
  }
  const std::size_t env = open_envelope(out);
  put_u8(out, kRecordCommit);
  put_u64(out, epoch);
  put_u64(out, cycle);
  put_u32(out, static_cast<std::uint32_t>(store.pending().size()));
  for (const KeyId id : store.pending()) {
    put_varint(out, dict.intern(store.key_name(id)));
    put_value(out, store.pending_value(id));
  }
  close_envelope(out, env);
}

namespace {

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

ScanResult scan_journal(const JournalBackend& backend) {
  std::vector<std::uint8_t> payload;
  return scan_journal(backend, payload, nullptr);
}

ScanResult scan_journal(const JournalBackend& backend,
                        std::vector<std::uint8_t>& scratch, ScanStats* stats) {
  ScanResult result;
  std::vector<std::uint8_t>& payload = scratch;
  const std::uint64_t total = backend.size();
  if (total == 0) {
    // A never-written device is a valid empty journal.
    result.header_ok = true;
    result.valid_bytes = 0;
    return result;
  }
  std::uint8_t magic[8] = {};
  if (backend.read(0, magic, sizeof magic) != sizeof magic ||
      std::memcmp(magic, kJournalMagic, sizeof magic) != 0) {
    result.reason = "bad or short journal header";
    result.truncated = true;
    return result;
  }
  result.header_ok = true;
  result.valid_bytes = kHeaderSize;

  std::uint64_t offset = kHeaderSize;
  std::uint64_t last_epoch = 0;
  while (offset < total) {
    std::uint8_t envelope[8] = {};
    if (backend.read(offset, envelope, sizeof envelope) != sizeof envelope) {
      result.truncated = true;
      result.reason = "torn record envelope";
      break;
    }
    const std::uint32_t len = get_u32(envelope);
    const std::uint32_t crc = get_u32(envelope + 4);
    if (len > kMaxPayload) {
      result.truncated = true;
      result.reason = "implausible record length (corrupt length prefix)";
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
      result.truncated = true;
      result.reason = "torn record payload";
      break;
    }
    if (crc32(payload.data(), len) != crc) {
      result.truncated = true;
      result.reason = "record CRC mismatch";
      break;
    }
    ByteReader reader(payload.data(), len);
    const std::uint8_t kind = reader.u8();
    if (kind == kRecordDict) {
      const std::uint64_t first_id = reader.varint();
      const std::uint64_t count = reader.varint();
      // Ids must extend the dictionary contiguously; anything else means the
      // record belongs to a different journal generation.
      if (!reader.ok() || first_id != result.dict.size() ||
          count > kMaxPayload) {
        result.truncated = true;
        result.reason = "malformed dictionary record";
        break;
      }
      for (std::uint64_t i = 0; i < count && reader.ok(); ++i) {
        result.dict.push_back(reader.string());
      }
      if (!reader.exhausted()) {
        result.truncated = true;
        result.reason = "malformed dictionary record";
        break;
      }
      result.dict_records.push_back(
          DictRecordInfo{offset, static_cast<std::uint32_t>(first_id),
                         static_cast<std::uint32_t>(count)});
    } else if (kind == kRecordCommit) {
      JournalRecord record;
      record.offset = offset;
      record.epoch = reader.u64();
      record.cycle = reader.u64();
      const std::uint32_t n = reader.u32();
      record.entries.reserve(n);
      record.entry_ids.reserve(n);
      bool bad_id = false;
      for (std::uint32_t i = 0; i < n && reader.ok(); ++i) {
        const std::uint64_t id = reader.varint();
        if (id >= result.dict.size()) {
          bad_id = true;
          break;
        }
        Value value = reader.value();
        record.entries.emplace_back(result.dict[id], std::move(value));
        record.entry_ids.push_back(static_cast<std::uint32_t>(id));
      }
      if (bad_id || !reader.exhausted()) {
        result.truncated = true;
        result.reason = bad_id ? "commit references unknown key id"
                               : "malformed record payload";
        break;
      }
      if (record.epoch <= last_epoch) {
        result.truncated = true;
        result.reason = "non-monotone commit epoch";
        break;
      }
      last_epoch = record.epoch;
      result.records.push_back(std::move(record));
    } else {
      result.truncated = true;
      result.reason = "unknown record kind";
      break;
    }
    offset += 8 + len;
    result.valid_bytes = offset;
  }
  return result;
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
