#include "arfs/storage/durable/snapshot.hpp"

#include <cstring>

#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/durable/wire.hpp"

namespace arfs::storage::durable {

bool append_snapshot(JournalBackend& backend, const StableStorage& store,
                     std::vector<std::uint8_t>& buf) {
  if (backend.size() == 0) {
    backend.append(kSnapshotMagic, sizeof kSnapshotMagic);
  } else {
    std::uint8_t magic[8] = {};
    if (backend.read(0, magic, sizeof magic) != sizeof magic ||
        std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0) {
      return false;
    }
  }
  buf.clear();
  const std::size_t envelope = open_envelope(buf);
  put_u64(buf, store.commit_epochs());
  put_u64(buf, store.committed_count());
  store.for_each_committed(
      [&buf](const std::string& key, const Value& value, Cycle committed_at) {
        put_string(buf, key);
        put_value(buf, value);
        put_u64(buf, committed_at);
      });
  close_envelope(buf, envelope);
  backend.append(buf.data(), buf.size());
  return true;
}

namespace {

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
  return v;
}

}  // namespace

SnapshotWalk walk_snapshots(const JournalBackend& backend,
                            std::vector<std::uint8_t>& payload) {
  SnapshotWalk walk;
  const std::uint64_t total = backend.size();
  if (total == 0) {
    walk.header_ok = true;  // empty device: no snapshot yet, not damage
    return walk;
  }
  std::uint8_t magic[8] = {};
  if (backend.read(0, magic, sizeof magic) != sizeof magic ||
      std::memcmp(magic, kSnapshotMagic, sizeof magic) != 0) {
    walk.reason = "bad or short snapshot header";
    walk.truncated = true;
    return walk;
  }
  walk.header_ok = true;
  walk.valid_bytes = kHeaderSize;

  const auto stop = [&walk](const char* reason) {
    walk.truncated = true;
    walk.reason = reason;
  };
  std::uint64_t offset = kHeaderSize;
  while (offset < total) {
    std::uint8_t envelope[8] = {};
    if (backend.read(offset, envelope, sizeof envelope) != sizeof envelope) {
      stop("torn snapshot envelope");
      break;
    }
    const std::uint32_t len = get_u32(envelope);
    const std::uint32_t crc = get_u32(envelope + 4);
    if (len > kMaxPayload) {
      stop("implausible snapshot length");
      break;
    }
    payload.resize(len);
    if (backend.read(offset + 8, payload.data(), len) != len) {
      stop("torn snapshot payload");
      break;
    }
    if (crc32(payload.data(), len) != crc) {
      stop("snapshot CRC mismatch");
      break;
    }
    ByteReader reader(payload.data(), len);
    const std::uint64_t epoch = reader.u64();
    const std::uint64_t n = reader.u64();
    if (n > reader.remaining() / kMinSnapshotEntryBytes) {
      stop("malformed snapshot payload");
      break;
    }
    for (std::uint64_t i = 0; i < n && reader.ok(); ++i) {
      (void)reader.string_view();
      reader.skip_value();
      (void)reader.u64();
    }
    if (!reader.exhausted()) {
      stop("malformed snapshot payload");
      break;
    }
    walk.previous_offset = walk.last_offset;
    walk.last_offset = offset;
    walk.last_epoch = epoch;
    ++walk.images;
    offset += 8 + len;
    walk.valid_bytes = offset;
  }
  return walk;
}

SnapshotWalk restore_last_snapshot(const JournalBackend& backend,
                                   StableStorage& out,
                                   std::vector<std::uint8_t>& payload) {
  const SnapshotWalk walk = walk_snapshots(backend, payload);
  if (walk.images == 0) return walk;
  // Re-read the last image the walk found valid and restore its entries.
  std::uint8_t envelope[8] = {};
  (void)backend.read(walk.last_offset, envelope, sizeof envelope);
  payload.resize(get_u32(envelope));
  (void)backend.read(walk.last_offset + 8, payload.data(), payload.size());
  ByteReader reader(payload.data(), payload.size());
  (void)reader.u64();  // epoch
  const std::uint64_t n = reader.u64();
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::string_view key = reader.string_view();
    Value value = reader.value();
    const Cycle committed_at = reader.u64();
    out.restore(out.intern(key), std::move(value), committed_at);
  }
  return walk;
}

}  // namespace arfs::storage::durable
