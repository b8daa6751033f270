#include "arfs/serve/transport.hpp"

#include <array>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "arfs/common/check.hpp"
#include "arfs/storage/durable/wire.hpp"

namespace arfs::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw Error("cannot set O_NONBLOCK on stream fd");
  }
}

void put_u32(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u64(std::uint8_t* out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* in) {
  return static_cast<std::uint32_t>(in[0]) |
         (static_cast<std::uint32_t>(in[1]) << 8) |
         (static_cast<std::uint32_t>(in[2]) << 16) |
         (static_cast<std::uint32_t>(in[3]) << 24);
}

std::uint64_t get_u64(const std::uint8_t* in) {
  return static_cast<std::uint64_t>(get_u32(in)) |
         (static_cast<std::uint64_t>(get_u32(in + 4)) << 32);
}

}  // namespace

// --- ShmTransport ---

ShmTransport::ShmTransport(std::shared_ptr<FrameRing> ring)
    : ring_(std::move(ring)) {
  require(ring_ != nullptr, "ShmTransport needs a ring");
}

bool ShmTransport::try_send(const FrameRecord& record,
                            std::uint64_t stamp_ns) {
  return ring_->try_publish(record, stamp_ns);
}

void ShmTransport::close() { ring_->close(); }

bool ShmTransport::flushed() const {
  return ring_->consumed() == ring_->published();
}

// --- StreamTransport ---

StreamTransport::StreamTransport(int fd, std::size_t pending_cap_bytes)
    : fd_(fd), pending_cap_(pending_cap_bytes) {
  require(fd_ >= 0, "StreamTransport needs an open fd");
  set_nonblocking(fd_);
}

StreamTransport::~StreamTransport() {
  if (fd_ >= 0) ::close(fd_);
}

bool StreamTransport::try_send(const FrameRecord& record,
                               std::uint64_t stamp_ns) {
  if (closed_ || send_failed_) return false;
  flush_pending();
  if (pending_.size() - pending_head_ + kWireBytes > pending_cap_) {
    return false;  // client is not draining; skip, don't stall
  }
  // Seq is assigned at accept time, exactly like the ring's publish cursor:
  // rejected records take no seq, so the client-visible sequence stays
  // contiguous across skips.
  FrameRecord stamped = record;
  stamped.seq = next_seq_++;
  std::array<std::uint8_t, kRecordBytes> payload;
  encode_record(payload, stamped);
  std::uint8_t head[16];
  put_u32(head, static_cast<std::uint32_t>(payload.size()));
  put_u64(head + 4, stamp_ns);
  put_u32(head + 12, storage::durable::crc32(payload.data(), payload.size()));
  pending_.insert(pending_.end(), head, head + sizeof head);
  pending_.insert(pending_.end(), payload.begin(), payload.end());
  flush_pending();
  return !send_failed_;
}

void StreamTransport::pump() {
  if (!send_failed_) flush_pending();
  if (closed_ && flushed() && fd_ >= 0) {
    ::close(fd_);  // EOF signals end-of-stream to the source
    fd_ = -1;
  }
}

void StreamTransport::close() {
  closed_ = true;
  pump();
}

bool StreamTransport::flushed() const {
  return send_failed_ || pending_head_ == pending_.size();
}

void StreamTransport::flush_pending() {
  while (pending_head_ < pending_.size() && fd_ >= 0) {
    const ssize_t n = ::write(fd_, pending_.data() + pending_head_,
                              pending_.size() - pending_head_);
    if (n > 0) {
      pending_head_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    send_failed_ = true;  // peer gone (EPIPE & co.): poison, never throw
    break;
  }
  if (pending_head_ == pending_.size()) {
    pending_.clear();
    pending_head_ = 0;
  } else if (pending_head_ >= 4096) {
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<std::ptrdiff_t>(pending_head_));
    pending_head_ = 0;
  }
}

// --- RingSource ---

FrameSource::Poll RingSource::poll(Item& out) {
  FrameRing::Delivered delivered;
  switch (ring_->try_consume(delivered)) {
    case FrameRing::Consume::kEmpty:
      return Poll::kEmpty;
    case FrameRing::Consume::kClosed:
      return Poll::kClosed;
    case FrameRing::Consume::kRecord:
      out.record = delivered.record;
      out.stamp_ns = delivered.stamp_ns;
      return Poll::kRecord;
  }
  return Poll::kEmpty;
}

// --- StreamSource ---

StreamSource::StreamSource(int fd) : fd_(fd) {
  require(fd_ >= 0, "StreamSource needs an open fd");
  set_nonblocking(fd_);
}

StreamSource::~StreamSource() {
  if (fd_ >= 0) ::close(fd_);
}

FrameSource::Poll StreamSource::poll(Item& out) {
  // Frame whatever is already buffered before touching the fd again.
  for (;;) {
    const std::size_t avail = buffer_.size() - head_;
    if (avail >= 16) {
      const std::uint8_t* p = buffer_.data() + head_;
      const std::uint32_t len = get_u32(p);
      if (len != kRecordBytes) {
        throw Error("stream corrupt: record length " + std::to_string(len));
      }
      if (avail >= 16 + len) {
        const std::uint64_t stamp = get_u64(p + 4);
        const std::uint32_t crc = get_u32(p + 12);
        if (storage::durable::crc32(p + 16, len) != crc) {
          throw Error("stream corrupt: CRC mismatch");
        }
        if (!decode_record(p + 16, len, out.record)) {
          throw Error("stream corrupt: undecodable record");
        }
        out.stamp_ns = stamp;
        head_ += 16 + len;
        if (head_ == buffer_.size()) {
          buffer_.clear();
          head_ = 0;
        } else if (head_ >= 4096) {
          buffer_.erase(buffer_.begin(),
                        buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
          head_ = 0;
        }
        return Poll::kRecord;
      }
    }
    if (eof_) {
      if (buffer_.size() != head_) {
        throw Error("stream corrupt: truncated trailing record");
      }
      return Poll::kClosed;
    }
    std::uint8_t chunk[4096];
    const ssize_t n = ::read(fd_, chunk, sizeof chunk);
    if (n > 0) {
      buffer_.insert(buffer_.end(), chunk, chunk + n);
      continue;
    }
    if (n == 0) {
      eof_ = true;
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Poll::kEmpty;
    throw Error("stream read failed: " + std::string(std::strerror(errno)));
  }
}

}  // namespace arfs::serve
