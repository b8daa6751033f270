#include "arfs/serve/server.hpp"

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <utility>

#include "arfs/common/check.hpp"
#include "arfs/sim/batch.hpp"

namespace arfs::serve {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* to_string(TransportKind kind) {
  switch (kind) {
    case TransportKind::kShm:
      return "shm";
    case TransportKind::kStream:
      return "socket";
  }
  return "unknown";
}

struct SimServer::Slot {
  std::optional<support::SystemPool::Lease> lease;
  SessionReport* report = nullptr;
  FrameTransport* transport = nullptr;  ///< `shm` or `owned`.
  /// The slot's heap ring, kept across its sessions.
  std::optional<ShmTransport> shm;
  /// A stream or file-backed transport, one per session.
  std::unique_ptr<FrameTransport> owned;
  Cycle produced = 0;  ///< run_frame calls so far.
  std::uint64_t digest = kDigestBasis;
  /// Pending (not yet delivered) gap: [gap_first, gap_first + gap_count).
  std::uint64_t gap_first = 0;
  std::uint64_t gap_count = 0;
};

SimServer::SimServer(support::MissionFactory factory,
                     support::PlanFactory plan_for, ServeOptions options)
    : options_(options),
      plan_for_(std::move(plan_for)),
      pool_(std::move(factory), options.warmup_frames) {
  require(static_cast<bool>(plan_for_), "SimServer needs a plan factory");
  require(options_.max_sessions > 0, "max_sessions must be positive");
  require(options_.frame_budget > 0, "frame_budget must be positive");
}

SimServer::~SimServer() = default;

SimServer::Opened SimServer::open_session(TransportKind kind) {
  if (active_ >= options_.max_sessions) {
    ++rejected_;
    throw Error("session rejected: " + std::to_string(active_) + " of " +
                std::to_string(options_.max_sessions) +
                " sessions already active");
  }
  if (active_ == slots_.size()) slots_.push_back(std::make_unique<Slot>());
  Slot& slot = *slots_[active_];
  const std::size_t index = opened_;

  Opened opened;
  opened.id = index + 1;
  opened.seed = sim::job_seed(options_.base_seed, index);
  attach_transport(slot, kind, opened);
  slot.lease.emplace(pool_.lease());
  slot.lease->mission().reset();
  slot.lease->mission().system().set_fault_plan(plan_for_(opened.seed));
  slot.produced = 0;
  slot.digest = kDigestBasis;
  slot.gap_first = 0;
  slot.gap_count = 0;

  if (index % kReportsPerChunk == 0) {
    report_chunks_.push_back(
        std::make_unique<SessionReport[]>(kReportsPerChunk));
  }
  SessionReport& report = report_chunks_.back()[index % kReportsPerChunk];
  report.id = opened.id;
  report.index = index;
  report.seed = opened.seed;
  report.transport = kind;
  slot.report = &report;
  ++opened_;
  ++active_;
  return opened;
}

void SimServer::attach_transport(Slot& slot, TransportKind kind,
                                 Opened& opened) {
  if (kind == TransportKind::kStream) {
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
      throw Error("session rejected: socketpair failed");
    }
    slot.owned =
        std::make_unique<StreamTransport>(fds[0], options_.stream_pending_cap);
    opened.source = std::make_unique<StreamSource>(fds[1]);
    slot.transport = slot.owned.get();
    return;
  }
  RingOptions ring_options;
  // A slot only ever carries one fixed-size record.
  ring_options.slot_bytes =
      static_cast<std::uint32_t>(FrameRing::kSlotHeaderBytes + kRecordBytes);
  ring_options.slot_count = options_.ring_slot_count;
  ring_options.reclaim_watermark_bytes = options_.ring_reclaim_watermark;
  if (!options_.shm_dir.empty()) {
    ring_options.path =
        options_.shm_dir + "/session-" + std::to_string(opened.id) + ".ring";
    std::shared_ptr<FrameRing> ring = FrameRing::create(ring_options);
    opened.ring_path = ring->path();
    opened.source = std::make_unique<RingSource>(ring);
    slot.owned = std::make_unique<ShmTransport>(std::move(ring));
    slot.transport = slot.owned.get();
    return;
  }
  // The slot's ring is rewound only when no client holds it any more. The
  // fence pairs with the release in the last client's shared_ptr drop, so
  // that client's final reads of the ring happen before the rewind.
  if (slot.shm && slot.shm->shared_ring().use_count() == 1) {
    std::atomic_thread_fence(std::memory_order_acquire);
    slot.shm->ring().reset();
  } else {
    slot.shm.emplace(FrameRing::create(ring_options));
  }
  opened.source = std::make_unique<RingSource>(slot.shm->shared_ring());
  slot.transport = &*slot.shm;
}

void SimServer::pump_session(Slot& slot) {
  SessionReport& report = *slot.report;
  core::System& sys = slot.lease->mission().system();

  // Produce unconditionally: the simulation loop never waits on a client.
  sys.run_frame();
  ++slot.produced;
  ++report.frames_produced;
  const Cycle frame = options_.warmup_frames + slot.produced;
  const FrameRecord record = make_frame_record(sys, frame);
  fold_record(slot.digest, record);
  report.producer_digest = slot.digest;

  // Deliver: an open gap goes first so the client's frame accounting stays
  // contiguous; a frame the transport rejects joins (or opens) the gap.
  slot.transport->pump();
  if (slot.gap_count > 0) {
    FrameRecord gap;
    gap.kind = RecordKind::kGap;
    gap.frame = slot.gap_first;
    gap.data0 = slot.gap_count;
    if (!slot.transport->try_send(gap, monotonic_ns())) {
      ++slot.gap_count;
      ++report.frames_skipped;
      return;
    }
    ++report.gap_records;
    slot.gap_count = 0;
  }
  if (slot.transport->try_send(record, monotonic_ns())) {
    ++report.frames_streamed;
  } else {
    slot.gap_first = frame;
    slot.gap_count = 1;
    ++report.frames_skipped;
  }
}

void SimServer::drain_session(Slot& slot) {
  SessionReport& report = *slot.report;
  slot.transport->pump();
  if (slot.gap_count > 0) {
    FrameRecord gap;
    gap.kind = RecordKind::kGap;
    gap.frame = slot.gap_first;
    gap.data0 = slot.gap_count;
    if (!slot.transport->try_send(gap, monotonic_ns())) return;
    ++report.gap_records;
    slot.gap_count = 0;
  }
  if (!report.end_sent) {
    FrameRecord end;
    end.kind = RecordKind::kEnd;
    end.frame = options_.warmup_frames + slot.produced;
    end.data0 = report.frames_produced;
    end.data1 = report.frames_skipped;
    end.data2 = slot.digest;
    if (!slot.transport->try_send(end, monotonic_ns())) return;
    report.end_sent = true;
    slot.transport->close();
    slot.lease.reset();  // the warm system goes back to the pool now
  }
  slot.transport->pump();
  if (slot.transport->flushed()) report.completed = true;
}

std::size_t SimServer::round(bool produce, bool& all_flushed) {
  std::size_t producing = 0;
  std::size_t kept = 0;
  all_flushed = true;
  for (std::size_t i = 0; i < active_; ++i) {
    Slot& slot = *slots_[i];
    if (slot.produced < options_.frame_budget) {
      if (produce) {
        pump_session(slot);
        ++producing;
      }
    } else {
      drain_session(slot);
      if (slot.report->completed) {
        // Retire: a stream fd or ring file is released now; the slot and
        // its heap ring wait in the idle tail for the next session.
        slot.transport = nullptr;
        slot.owned.reset();
        slot.report = nullptr;
        continue;
      }
      all_flushed = false;
    }
    if (kept != i) std::swap(slots_[kept], slots_[i]);
    ++kept;
  }
  active_ = kept;
  return producing;
}

std::size_t SimServer::pump() {
  bool all_flushed = true;
  return round(/*produce=*/true, all_flushed);
}

void SimServer::pump_all() {
  while (pump() > 0) {
  }
}

bool SimServer::drain() {
  bool all_flushed = true;
  (void)round(/*produce=*/false, all_flushed);
  return all_flushed;
}

const SessionReport& SimServer::report(std::uint64_t id) const {
  require(id >= 1 && id <= opened_, "unknown session id");
  const auto index = static_cast<std::size_t>(id - 1);
  return report_chunks_[index / kReportsPerChunk][index % kReportsPerChunk];
}

}  // namespace arfs::serve
