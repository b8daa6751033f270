#include "arfs/serve/frame_ring.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstring>

#include "arfs/common/check.hpp"
#include "arfs/storage/durable/wire.hpp"

namespace arfs::serve {

namespace {

constexpr std::size_t kPublishedOffset = 64;
constexpr std::size_t kConsumedOffset = 128;
constexpr std::size_t kClosedOffset = 192;

std::uint32_t round_pow2(std::uint32_t v) {
  std::uint32_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

std::atomic_ref<std::uint64_t> word64(std::uint8_t* base, std::size_t off) {
  return std::atomic_ref<std::uint64_t>(
      *reinterpret_cast<std::uint64_t*>(base + off));
}

std::atomic_ref<std::uint32_t> word32(std::uint8_t* base, std::size_t off) {
  return std::atomic_ref<std::uint32_t>(
      *reinterpret_cast<std::uint32_t*>(base + off));
}

void put_u32_raw(std::uint8_t* out, std::uint32_t v) {
  std::memcpy(out, &v, sizeof v);
}

void put_u64_raw(std::uint8_t* out, std::uint64_t v) {
  std::memcpy(out, &v, sizeof v);
}

std::uint32_t get_u32_raw(const std::uint8_t* in) {
  std::uint32_t v;
  std::memcpy(&v, in, sizeof v);
  return v;
}

std::uint64_t get_u64_raw(const std::uint8_t* in) {
  std::uint64_t v;
  std::memcpy(&v, in, sizeof v);
  return v;
}

}  // namespace

std::unique_ptr<FrameRing> FrameRing::create(RingOptions options) {
  auto ring = std::unique_ptr<FrameRing>(new FrameRing());
  ring->path_ = options.path;
  ring->slot_bytes_ =
      static_cast<std::uint32_t>((options.slot_bytes + 7u) & ~7u);
  require(ring->slot_bytes_ >= kSlotHeaderBytes + kRecordBytes,
          "ring slot too small for a record");
  ring->slot_count_ = round_pow2(options.slot_count < 2 ? 2 : options.slot_count);
  ring->reclaim_watermark_ = options.reclaim_watermark_bytes;
  ring->map_and_validate(/*create=*/true);
  return ring;
}

std::unique_ptr<FrameRing> FrameRing::attach(
    const std::string& path, std::size_t reclaim_watermark_bytes) {
  auto ring = std::unique_ptr<FrameRing>(new FrameRing());
  ring->path_ = path;
  ring->reclaim_watermark_ = reclaim_watermark_bytes;
  ring->map_and_validate(/*create=*/false);
  return ring;
}

void FrameRing::map_and_validate(bool create) {
  const long page = ::sysconf(_SC_PAGESIZE);
  if (page > 0) page_ = static_cast<std::size_t>(page);
  // Reclaim drops only whole pages strictly inside the consumed span, and
  // the slot area starts page-misaligned (kSlotsOffset). A span shorter
  // than two pages can therefore contain no full page at all, so a smaller
  // watermark would trigger reclaims that never free anything.
  if (reclaim_watermark_ > 0 && reclaim_watermark_ < 2 * page_) {
    reclaim_watermark_ = 2 * page_;
  }

  if (path_.empty()) {
    require(create, "an in-memory ring cannot be attached");
    mapping_bytes_ =
        kSlotsOffset + static_cast<std::size_t>(slot_bytes_) * slot_count_;
    heap_ = std::make_unique<std::uint8_t[]>(mapping_bytes_);  // zeroed
    base_ = heap_.get();
  } else if (create) {
    mapping_bytes_ =
        kSlotsOffset + static_cast<std::size_t>(slot_bytes_) * slot_count_;
    mapping_bytes_ = (mapping_bytes_ + page_ - 1) & ~(page_ - 1);
    fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) throw Error("cannot create ring file " + path_);
    if (::ftruncate(fd_, static_cast<off_t>(mapping_bytes_)) != 0) {
      ::close(fd_);
      fd_ = -1;
      throw Error("cannot size ring file " + path_);
    }
    void* mapped = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                          MAP_SHARED, fd_, 0);
    if (mapped == MAP_FAILED) {
      ::close(fd_);
      fd_ = -1;
      throw Error("cannot map ring file " + path_);
    }
    base_ = static_cast<std::uint8_t*>(mapped);
  } else {
    fd_ = ::open(path_.c_str(), O_RDWR);
    if (fd_ < 0) throw Error("cannot open ring file " + path_);
    struct stat st{};
    if (::fstat(fd_, &st) != 0 ||
        static_cast<std::size_t>(st.st_size) < kSlotsOffset) {
      ::close(fd_);
      fd_ = -1;
      throw Error(path_ + " is not a frame ring (too short)");
    }
    mapping_bytes_ = static_cast<std::size_t>(st.st_size);
    void* mapped = ::mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                          MAP_SHARED, fd_, 0);
    if (mapped == MAP_FAILED) {
      ::close(fd_);
      fd_ = -1;
      throw Error("cannot map ring file " + path_);
    }
    base_ = static_cast<std::uint8_t*>(mapped);
  }

  if (create) {
    put_u64_raw(base_, kMagic);
    put_u32_raw(base_ + 8, kVersion);
    put_u32_raw(base_ + 12, slot_bytes_);
    put_u32_raw(base_ + 16, slot_count_);
    put_u32_raw(base_ + 20, 0);
    return;
  }
  if (get_u64_raw(base_) != kMagic || get_u32_raw(base_ + 8) != kVersion) {
    throw Error(path_ + " is not a frame ring (bad header)");
  }
  slot_bytes_ = get_u32_raw(base_ + 12);
  slot_count_ = get_u32_raw(base_ + 16);
  if (slot_bytes_ < kSlotHeaderBytes + kRecordBytes || slot_count_ < 2 ||
      (slot_count_ & (slot_count_ - 1)) != 0 ||
      kSlotsOffset + static_cast<std::size_t>(slot_bytes_) * slot_count_ >
          mapping_bytes_) {
    throw Error(path_ + " is not a frame ring (bad geometry)");
  }
  reclaim_from_ = word64(base_, kConsumedOffset).load(std::memory_order_relaxed);
}

FrameRing::~FrameRing() {
  if (base_ != nullptr && fd_ >= 0) ::munmap(base_, mapping_bytes_);
  if (fd_ >= 0) ::close(fd_);
}

bool FrameRing::try_publish(const FrameRecord& record,
                            std::uint64_t stamp_ns) {
  const std::uint64_t pub =
      word64(base_, kPublishedOffset).load(std::memory_order_relaxed);
  const std::uint64_t cons =
      word64(base_, kConsumedOffset).load(std::memory_order_acquire);
  if (pub - cons >= slot_count_) {
    ++stats_.publish_fails;
    return false;
  }
  std::uint8_t* slot = base_ + kSlotsOffset +
                       static_cast<std::size_t>(pub & (slot_count_ - 1)) *
                           slot_bytes_;
  FrameRecord stamped = record;
  stamped.seq = pub;
  std::array<std::uint8_t, kRecordBytes> bytes;
  encode_record(bytes, stamped);
  put_u64_raw(slot, pub);
  put_u64_raw(slot + 8, stamp_ns);
  put_u32_raw(slot + 16,
              storage::durable::crc32(bytes.data(), bytes.size()));
  put_u32_raw(slot + 20, static_cast<std::uint32_t>(bytes.size()));
  std::memcpy(slot + kSlotHeaderBytes, bytes.data(), bytes.size());
  word64(base_, kPublishedOffset).store(pub + 1, std::memory_order_release);
  ++stats_.published;
  return true;
}

void FrameRing::close() {
  word32(base_, kClosedOffset).store(1, std::memory_order_release);
}

void FrameRing::reset() {
  word64(base_, kPublishedOffset).store(0, std::memory_order_relaxed);
  word64(base_, kConsumedOffset).store(0, std::memory_order_relaxed);
  word32(base_, kClosedOffset).store(0, std::memory_order_relaxed);
  reclaim_from_ = 0;
  stats_ = RingStats{};
}

FrameRing::Consume FrameRing::try_consume(Delivered& out) {
  const std::uint64_t cons =
      word64(base_, kConsumedOffset).load(std::memory_order_relaxed);
  const std::uint64_t pub =
      word64(base_, kPublishedOffset).load(std::memory_order_acquire);
  if (cons == pub) {
    return word32(base_, kClosedOffset).load(std::memory_order_acquire) != 0
               ? Consume::kClosed
               : Consume::kEmpty;
  }
  const std::uint8_t* slot = base_ + kSlotsOffset +
                             static_cast<std::size_t>(cons & (slot_count_ - 1)) *
                                 slot_bytes_;
  const std::uint64_t seq = get_u64_raw(slot);
  if (seq != cons) {
    throw Error("frame ring corrupt: slot seq " + std::to_string(seq) +
                " where " + std::to_string(cons) + " expected");
  }
  const std::uint32_t crc = get_u32_raw(slot + 16);
  const std::uint32_t len = get_u32_raw(slot + 20);
  if (len != kRecordBytes ||
      len > slot_bytes_ - kSlotHeaderBytes ||
      storage::durable::crc32(slot + kSlotHeaderBytes, len) != crc) {
    throw Error("frame ring corrupt: CRC mismatch at seq " +
                std::to_string(cons));
  }
  if (!decode_record(slot + kSlotHeaderBytes, len, out.record)) {
    throw Error("frame ring corrupt: undecodable record at seq " +
                std::to_string(cons));
  }
  out.stamp_ns = get_u64_raw(slot + 8);
  word64(base_, kConsumedOffset).store(cons + 1, std::memory_order_release);
  ++stats_.consumed;
  if (reclaim_watermark_ > 0 && fd_ >= 0 &&
      (cons + 1 - reclaim_from_) * slot_bytes_ >= reclaim_watermark_) {
    reclaim_consumed(cons + 1);
  }
  return Consume::kRecord;
}

void FrameRing::reclaim_consumed(std::uint64_t upto_seq) {
  // Drop the pages of the drained span [reclaim_from_, upto_seq), splitting
  // at the ring wrap. Spans are msync(MS_ASYNC)ed first so a file-backed
  // page that refaults (the producer rewrites slots on wrap) always reads
  // back what was last written — the MappedArena write-back discipline.
  const auto drop = [&](std::uint64_t first, std::uint64_t count) {
    if (count == 0) return;
    const std::size_t begin =
        kSlotsOffset +
        static_cast<std::size_t>(first & (slot_count_ - 1)) * slot_bytes_;
    const std::size_t end = begin + static_cast<std::size_t>(count) * slot_bytes_;
    // Page-align inward: never touch a page a live slot shares.
    const std::size_t lo = (begin + page_ - 1) & ~(page_ - 1);
    const std::size_t hi = end & ~(page_ - 1);
    if (lo >= hi) return;
    ::msync(base_ + lo, hi - lo, MS_ASYNC);
    ::madvise(base_ + lo, hi - lo, MADV_DONTNEED);
    ++stats_.reclaims;
    stats_.reclaimed_bytes += hi - lo;
  };
  std::uint64_t first = reclaim_from_;
  const std::uint64_t mask = slot_count_ - 1;
  while (first < upto_seq) {
    // Run to the wrap boundary or the span end, whichever is closer.
    const std::uint64_t to_wrap = slot_count_ - (first & mask);
    const std::uint64_t count = std::min<std::uint64_t>(to_wrap,
                                                        upto_seq - first);
    drop(first, count);
    first += count;
  }
  reclaim_from_ = upto_seq;
}

std::uint64_t FrameRing::published() const {
  return word64(const_cast<std::uint8_t*>(base_), kPublishedOffset)
      .load(std::memory_order_acquire);
}

std::uint64_t FrameRing::consumed() const {
  return word64(const_cast<std::uint8_t*>(base_), kConsumedOffset)
      .load(std::memory_order_acquire);
}

bool FrameRing::closed() const {
  return word32(const_cast<std::uint8_t*>(base_), kClosedOffset)
             .load(std::memory_order_acquire) != 0;
}

std::uint32_t FrameRing::free_slots() const {
  const std::uint64_t pub = published();
  const std::uint64_t cons = consumed();
  return slot_count_ - static_cast<std::uint32_t>(pub - cons);
}

}  // namespace arfs::serve
