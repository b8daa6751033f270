#include "arfs/storage/durable/backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "arfs/common/assign.hpp"
#include "arfs/common/check.hpp"
#include "arfs/storage/arena.hpp"

namespace arfs::storage::durable {

// --- MemoryBackend ---

MemoryBackend::MemoryBackend(std::vector<std::uint8_t> durable,
                             std::vector<std::uint8_t> buffered) {
  durable_ = std::move(durable);
  buffered_ = std::move(buffered);
}

MemoryBackend::MemoryBackend(const MemoryBackend& other) {
  other.hydrate();
  durable_ = other.durable_;
  buffered_ = other.buffered_;
  syncs_ = other.syncs_;
  sync_failures_armed_ = other.sync_failures_armed_;
  delayed_failure_armed_ = other.delayed_failure_armed_;
  delayed_failure_after_ = other.delayed_failure_after_;
  tear_armed_ = other.tear_armed_;
  tear_keep_ = other.tear_keep_;
  // Spill state and hydration count deliberately not copied: the copy is a
  // fresh in-RAM device with no claim on the source's arena region.
}

MemoryBackend& MemoryBackend::operator=(const MemoryBackend& other) {
  if (this == &other) return *this;
  other.hydrate();
  if (spill_arena_ != nullptr) {
    // Our spilled bytes are about to be overwritten: release them unread.
    spill_arena_->release(spill_region_);
    spill_arena_ = nullptr;
    spill_region_ = 0;
    spilled_durable_ = 0;
    spilled_buffered_ = 0;
  }
  // A device refreshed from one that grows a little every frame (a
  // checkpoint taken again and again) keeps its copy's capacity ahead.
  assign_amortized(durable_, other.durable_);
  assign_amortized(buffered_, other.buffered_);
  syncs_ = other.syncs_;
  sync_failures_armed_ = other.sync_failures_armed_;
  delayed_failure_armed_ = other.delayed_failure_armed_;
  delayed_failure_after_ = other.delayed_failure_after_;
  tear_armed_ = other.tear_armed_;
  tear_keep_ = other.tear_keep_;
  return *this;
}

std::uint64_t MemoryBackend::spill(storage::MappedArena& arena) {
  if (spill_arena_ != nullptr) return 0;  // already spilled
  const std::uint64_t payload = 8 + durable_.size() + buffered_.size();
  if (payload == 8) return 0;  // nothing worth a region
  const MappedArena::RegionId rid =
      arena.allocate(static_cast<std::size_t>(payload));
  std::uint8_t* out = arena.data(rid);
  const std::uint64_t dlen = durable_.size();
  for (int i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(dlen >> (8 * i));
  }
  if (!durable_.empty()) {
    std::memcpy(out + 8, durable_.data(), durable_.size());
  }
  if (!buffered_.empty()) {
    std::memcpy(out + 8 + durable_.size(), buffered_.data(),
                buffered_.size());
  }
  arena.seal(rid);
  spill_arena_ = &arena;
  spill_region_ = rid;
  spilled_durable_ = durable_.size();
  spilled_buffered_ = buffered_.size();
  // swap-with-empty actually frees the heap capacity (clear() keeps it).
  std::vector<std::uint8_t>().swap(durable_);
  std::vector<std::uint8_t>().swap(buffered_);
  return payload;
}

void MemoryBackend::hydrate() const {
  if (spill_arena_ == nullptr) return;
  std::size_t bytes = 0;
  const std::uint8_t* in = spill_arena_->read(spill_region_, &bytes);
  ensure(bytes == 8 + spilled_durable_ + spilled_buffered_,
         "spilled device region size mismatch");
  std::uint64_t dlen = 0;
  for (int i = 7; i >= 0; --i) dlen = (dlen << 8) | in[i];
  ensure(dlen == spilled_durable_, "spilled device length mismatch");
  durable_.assign(in + 8, in + 8 + spilled_durable_);
  buffered_.assign(in + 8 + spilled_durable_,
                   in + 8 + spilled_durable_ + spilled_buffered_);
  spill_arena_->release(spill_region_);
  spill_arena_ = nullptr;
  spill_region_ = 0;
  spilled_durable_ = 0;
  spilled_buffered_ = 0;
  ++hydrations_;
}

std::uint64_t MemoryBackend::size() const {
  if (spill_arena_ != nullptr) return spilled_durable_ + spilled_buffered_;
  return durable_.size() + buffered_.size();
}

std::uint64_t MemoryBackend::synced_size() const {
  if (spill_arena_ != nullptr) return spilled_durable_;
  return durable_.size();
}

void MemoryBackend::append(const std::uint8_t* data, std::size_t n) {
  hydrate();
  buffered_.insert(buffered_.end(), data, data + n);
}

bool MemoryBackend::sync() {
  hydrate();
  if (sync_failures_armed_ > 0) {
    --sync_failures_armed_;
    return false;
  }
  if (delayed_failure_armed_ && delayed_failure_after_ == 0) {
    delayed_failure_armed_ = false;
    return false;
  }
  durable_.insert(durable_.end(), buffered_.begin(), buffered_.end());
  buffered_.clear();
  ++syncs_;
  if (delayed_failure_armed_) --delayed_failure_after_;
  return true;
}

std::size_t MemoryBackend::read(std::uint64_t offset, std::uint8_t* out,
                                std::size_t n) const {
  hydrate();
  const std::uint64_t total = size();
  if (offset >= total || n == 0) return 0;
  const std::size_t avail =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, total - offset));
  // At most two spans: the part of the range on the durable image, then
  // the part in the buffered tail.
  std::size_t done = 0;
  if (offset < durable_.size()) {
    done = std::min(avail, static_cast<std::size_t>(durable_.size() - offset));
    std::memcpy(out, durable_.data() + offset, done);
  }
  if (done < avail) {
    const auto at = static_cast<std::size_t>(offset + done - durable_.size());
    std::memcpy(out + done, buffered_.data() + at, avail - done);
  }
  return avail;
}

void MemoryBackend::truncate(std::uint64_t new_size) {
  hydrate();
  if (new_size >= size()) return;
  if (new_size <= durable_.size()) {
    durable_.resize(static_cast<std::size_t>(new_size));
    buffered_.clear();
  } else {
    buffered_.resize(static_cast<std::size_t>(new_size - durable_.size()));
  }
}

void MemoryBackend::crash() {
  hydrate();
  if (tear_armed_) {
    // A torn write: the device got part-way through the final transfer.
    const std::size_t keep = std::min(tear_keep_, buffered_.size());
    durable_.insert(durable_.end(), buffered_.begin(),
                    buffered_.begin() + static_cast<std::ptrdiff_t>(keep));
    tear_armed_ = false;
  }
  buffered_.clear();
  sync_failures_armed_ = 0;
  delayed_failure_armed_ = false;
}

void MemoryBackend::tear_on_crash(std::size_t keep_bytes) {
  tear_armed_ = true;
  tear_keep_ = keep_bytes;
}

void MemoryBackend::corrupt_bit(std::uint64_t seed) {
  hydrate();
  if (durable_.empty()) return;
  // SplitMix64 finalizer spreads the seed over the durable image.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  durable_[static_cast<std::size_t>(z % durable_.size())] ^=
      static_cast<std::uint8_t>(1u << ((z >> 32) % 8));
}

// --- FileBackend ---

int (*FileBackend::fsync_hook)(int fd) = nullptr;
long (*FileBackend::pwrite_hook)(int fd, const void* buf, std::size_t n,
                                 std::int64_t offset) = nullptr;

FileBackend::FileBackend(const std::string& path, bool create) : path_(path) {
  const int flags = create ? O_RDWR | O_CREAT : O_RDWR;
  fd_ = ::open(path.c_str(), flags, 0644);
  if (fd_ < 0) {
    throw Error("cannot open journal file " + path + ": " +
                std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw Error("cannot stat journal file " + path);
  }
  durable_size_ = static_cast<std::uint64_t>(st.st_size);
}

FileBackend::~FileBackend() {
  if (fd_ >= 0) ::close(fd_);
}

std::uint64_t FileBackend::size() const {
  return durable_size_ + buffered_.size();
}

void FileBackend::append(const std::uint8_t* data, std::size_t n) {
  buffered_.insert(buffered_.end(), data, data + n);
}

bool FileBackend::sync() {
  std::size_t done = 0;
  while (done < buffered_.size()) {
    const ssize_t w =
        pwrite_hook != nullptr
            ? pwrite_hook(fd_, buffered_.data() + done,
                          buffered_.size() - done,
                          static_cast<std::int64_t>(durable_size_ + done))
            : ::pwrite(fd_, buffered_.data() + done, buffered_.size() - done,
                       static_cast<off_t>(durable_size_ + done));
    if (w < 0) {
      if (errno == EINTR) continue;  // interrupted, not failed: retry
      return false;
    }
    done += static_cast<std::size_t>(w);
  }
  for (;;) {
    const int rc = fsync_hook != nullptr ? fsync_hook(fd_) : ::fsync(fd_);
    if (rc == 0) break;
    if (errno == EINTR) continue;  // interrupted, not failed: retry
    return false;
  }
  durable_size_ += buffered_.size();
  buffered_.clear();
  return true;
}

std::size_t FileBackend::read(std::uint64_t offset, std::uint8_t* out,
                              std::size_t n) const {
  const std::uint64_t total = size();
  if (offset >= total) return 0;
  std::size_t want =
      static_cast<std::size_t>(std::min<std::uint64_t>(n, total - offset));
  std::size_t got = 0;
  if (offset < durable_size_) {
    const std::size_t from_file = static_cast<std::size_t>(
        std::min<std::uint64_t>(want, durable_size_ - offset));
    std::size_t done = 0;
    while (done < from_file) {
      const ssize_t r = ::pread(fd_, out + done, from_file - done,
                                static_cast<off_t>(offset + done));
      if (r < 0) {
        if (errno == EINTR) continue;
        return done;
      }
      if (r == 0) return done;  // file shorter than expected
      done += static_cast<std::size_t>(r);
    }
    got = done;
  }
  if (got < want) {
    // The rest lies in the buffered tail.
    const auto at = static_cast<std::size_t>(offset + got - durable_size_);
    std::memcpy(out + got, buffered_.data() + at, want - got);
    got = want;
  }
  return got;
}

void FileBackend::truncate(std::uint64_t new_size) {
  if (new_size >= size()) return;
  if (new_size <= durable_size_) {
    buffered_.clear();
    if (::ftruncate(fd_, static_cast<off_t>(new_size)) != 0) {
      throw Error("cannot truncate journal file " + path_);
    }
    durable_size_ = new_size;
  } else {
    buffered_.resize(static_cast<std::size_t>(new_size - durable_size_));
  }
}

void FileBackend::crash() { buffered_.clear(); }

}  // namespace arfs::storage::durable
