#include "arfs/storage/durable/backend.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "arfs/common/assign.hpp"
#include "arfs/common/check.hpp"

namespace arfs::storage::durable {

// --- MemoryBackend ---

MemoryBackend::MemoryBackend(std::vector<std::uint8_t> durable,
                             std::vector<std::uint8_t> buffered) {
  durable_ = std::move(durable);
  buffered_ = std::move(buffered);
}

MemoryBackend& MemoryBackend::operator=(const MemoryBackend& other) {
  if (this == &other) return *this;
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

std::uint64_t MemoryBackend::size() const {
  return durable_.size() + buffered_.size();
}

std::uint64_t MemoryBackend::synced_size() const {
  return durable_.size();
}

void MemoryBackend::append(const std::uint8_t* data, std::size_t n) {
  buffered_.insert(buffered_.end(), data, data + n);
}

bool MemoryBackend::sync() {
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
  if (new_size >= size()) return;
  if (new_size <= durable_.size()) {
    durable_.resize(static_cast<std::size_t>(new_size));
    buffered_.clear();
  } else {
    buffered_.resize(static_cast<std::size_t>(new_size - durable_.size()));
  }
}

void MemoryBackend::crash() {
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
