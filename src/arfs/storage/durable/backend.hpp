// Journal devices.
//
// The durable layer never touches a medium directly; it appends, syncs,
// reads, and truncates through a JournalBackend. Two implementations:
//
//  * MemoryBackend — a deterministic simulated device for tests, campaigns,
//    and batch runs. It models the write path honestly: append() lands in a
//    buffered (volatile) tail, sync() moves the tail to the durable image,
//    and crash() discards whatever was never synced — optionally tearing a
//    prefix of the tail onto the device first, which is exactly how a real
//    disk produces a torn final record. Fault hooks arm sync failures, torn
//    writes, and bit corruption so sim::FaultPlan can schedule I/O faults.
//
//  * FileBackend — real file I/O (user-space buffer flushed by write+fsync
//    on sync()) for arfsctl, benchmarks, and cold-restart recovery.
//
// A crash in the fail-stop sense destroys the *buffered* bytes only; the
// durable image is what peers (and the restarted processor) can still read —
// the device-level analogue of the paper's stable-storage assumption (§5.1).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace arfs::storage::durable {

class JournalBackend {
 public:
  virtual ~JournalBackend() = default;

  /// Logical size: durable image plus buffered (unsynced) tail.
  [[nodiscard]] virtual std::uint64_t size() const = 0;
  /// Bytes guaranteed to survive a crash.
  [[nodiscard]] virtual std::uint64_t synced_size() const = 0;

  /// Appends to the buffered tail; durable only after a successful sync().
  virtual void append(const std::uint8_t* data, std::size_t n) = 0;

  /// Flushes the buffered tail to the durable image. Returns false when the
  /// device reports a sync failure: the tail stays buffered (a later sync
  /// can still save it) but a crash in between loses it.
  [[nodiscard]] virtual bool sync() = 0;

  /// Reads up to `n` bytes at `offset` from the logical content (the
  /// writer's own view, buffered tail included). Returns bytes read.
  virtual std::size_t read(std::uint64_t offset, std::uint8_t* out,
                           std::size_t n) const = 0;

  /// Truncates the logical content to `new_size` (used to discard a torn
  /// tail before appending resumes, and to compact after a snapshot).
  virtual void truncate(std::uint64_t new_size) = 0;

  /// Simulates the device side of a fail-stop halt: the buffered tail is
  /// lost (after any armed tear deposits a prefix of it durably).
  virtual void crash() = 0;

  // --- fault-injection hooks; deterministic sim devices override these,
  //     real devices ignore them ---

  /// Arms the next sync() to fail once.
  virtual void fail_next_sync() {}
  /// Arms one sync failure `successes` successful syncs from now (0 is
  /// equivalent to fail_next_sync) — targets a specific sync in a
  /// multi-sync operation, e.g. the GC rewrite after an image sync.
  virtual void fail_sync_after(std::uint32_t successes) { (void)successes; }
  /// Arms the next crash() to keep `keep_bytes` of the buffered tail on the
  /// durable image — a torn write of the final record.
  virtual void tear_on_crash(std::size_t keep_bytes) { (void)keep_bytes; }
  /// Flips one bit of the durable image at a position derived
  /// deterministically from `seed` (a latent media fault).
  virtual void corrupt_bit(std::uint64_t seed) { (void)seed; }
};

class MemoryBackend final : public JournalBackend {
 public:
  MemoryBackend() = default;
  /// A device pre-loaded with a durable image and buffered tail — how a
  /// caller turns foreign bytes (a journal file read for offline
  /// inspection) into a simulated device. Fault hooks start disarmed; the
  /// caller arms them through the public hook methods.
  MemoryBackend(std::vector<std::uint8_t> durable,
                std::vector<std::uint8_t> buffered);
  /// A copy carries the durable image, the buffered tail and the armed
  /// fault hooks; it is how engine checkpoints capture and restore a
  /// device. Copying reads only the source, so one image can be restored
  /// from many threads at once. Assignment keeps this device's buffers,
  /// growing them geometrically.
  MemoryBackend(const MemoryBackend& other) = default;
  MemoryBackend& operator=(const MemoryBackend& other);
  ~MemoryBackend() override = default;

  [[nodiscard]] std::uint64_t size() const override;
  [[nodiscard]] std::uint64_t synced_size() const override;
  void append(const std::uint8_t* data, std::size_t n) override;
  [[nodiscard]] bool sync() override;
  std::size_t read(std::uint64_t offset, std::uint8_t* out,
                   std::size_t n) const override;
  void truncate(std::uint64_t new_size) override;
  void crash() override;

  void fail_next_sync() override { sync_failures_armed_ += 1; }
  void fail_sync_after(std::uint32_t successes) override {
    delayed_failure_armed_ = true;
    delayed_failure_after_ = successes;
  }
  void tear_on_crash(std::size_t keep_bytes) override;
  void corrupt_bit(std::uint64_t seed) override;

  [[nodiscard]] std::uint64_t sync_count() const { return syncs_; }

 private:
  std::vector<std::uint8_t> durable_;
  std::vector<std::uint8_t> buffered_;
  std::uint64_t syncs_ = 0;
  std::uint32_t sync_failures_armed_ = 0;
  bool delayed_failure_armed_ = false;
  std::uint32_t delayed_failure_after_ = 0;
  bool tear_armed_ = false;
  std::size_t tear_keep_ = 0;
};

class FileBackend final : public JournalBackend {
 public:
  /// Opens (and with `create`, creates) the file. Throws arfs::Error when the
  /// file cannot be opened.
  explicit FileBackend(const std::string& path, bool create = true);
  ~FileBackend() override;

  FileBackend(const FileBackend&) = delete;
  FileBackend& operator=(const FileBackend&) = delete;

  [[nodiscard]] std::uint64_t size() const override;
  [[nodiscard]] std::uint64_t synced_size() const override { return durable_size_; }
  void append(const std::uint8_t* data, std::size_t n) override;
  [[nodiscard]] bool sync() override;
  std::size_t read(std::uint64_t offset, std::uint8_t* out,
                   std::size_t n) const override;
  void truncate(std::uint64_t new_size) override;
  void crash() override;  // drops the user-space buffer only

  [[nodiscard]] const std::string& path() const { return path_; }

  /// Test seams (null in production): stand-ins for ::fsync / ::pwrite so a
  /// unit test can inject EINTR deterministically instead of racing a real
  /// signal against the kernel. sync() must retry EINTR from either —
  /// a signal landing mid-sync is not an I/O error.
  static int (*fsync_hook)(int fd);
  static long (*pwrite_hook)(int fd, const void* buf, std::size_t n,
                             std::int64_t offset);

 private:
  std::string path_;
  int fd_ = -1;
  std::uint64_t durable_size_ = 0;
  std::vector<std::uint8_t> buffered_;
};

}  // namespace arfs::storage::durable
