// SimServer: the resident multi-session simulator service.
//
// The server owns a support::SystemPool of warm, checkpoint-seeded
// core::System instances and runs many concurrent *sessions* against it.
// Each session is one mission sample — session i is seeded exactly like
// sample i of a run_mission_sweep over the same factory/plan/base_seed, so
// the frame records a client receives digest bit-identically to what the
// in-process oracle computes — streamed to one client over its own
// transport (shared-memory ring fast path, length-prefixed stream
// fallback).
//
// The cardinal rule is that nothing a client does can stall the simulation
// loop. pump() advances every active session by one frame unconditionally;
// a transport that will not take the frame's record (full ring, saturated
// stream buffer) costs the client that frame — the session accounts it and
// emits an explicit gap record once capacity returns. pump_all() therefore
// terminates even against a completely stalled consumer: it runs until
// every session has *produced* its frame budget; delivery of the queued
// tail (pending gap + end record) completes later via drain() once the
// consumer comes back.
//
// Admission control: at most options.max_sessions sessions may be active at
// once — open_session throws arfs::Error beyond that — and every session's
// length is capped by options.frame_budget. Finished sessions return their
// leased system to the pool immediately, so a long serving run constructs
// about peak-concurrency systems, not one per session.
//
// Each active session runs in a *slot*, and a retired session's slot is
// reused by the next one, so the server keeps about peak-concurrency slots.
// A slot keeps its heap ring (kShm without shm_dir) across sessions and
// rewinds it in place when no client still holds it; a client that
// outlives its session keeps its ring, and the slot's next session gets a
// fresh one, so no client ever reads another session's records. Once the
// slots and the pool are warm, opening a heap-ring session allocates only
// its fault plan (one allocation from make_env_plan_factory) and the
// client's RingSource, and pump()/drain() allocate nothing. Stream and
// file-backed sessions get their own transport each (their fds and ring
// file belong to one session). A ring slot holds exactly one record.
//
// The pool keeps one warm image for every system it builds (see
// support::SystemPool), so the server's memory grows with its peak
// concurrency by one system and one slot per session, not by an image.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "arfs/serve/transport.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/sweep.hpp"

namespace arfs::serve {

enum class TransportKind : std::uint8_t {
  kShm,     ///< FrameRing fast path.
  kStream,  ///< Length-prefixed socketpair fallback.
};

[[nodiscard]] const char* to_string(TransportKind kind);

struct ServeOptions {
  /// Admission control: concurrent-session ceiling.
  std::size_t max_sessions = 1024;
  /// Frames each session runs beyond the warm point (its mission length).
  Cycle frame_budget = 64;
  /// Shared deterministic prefix, warmed once by the pool's first system.
  Cycle warmup_frames = 0;
  /// Sweep-compatible seeding root: session i uses job_seed(base_seed, i).
  std::uint64_t base_seed = 1;
  /// Slots per shm session ring; each slot holds one record
  /// (FrameRing::kSlotHeaderBytes + kRecordBytes).
  std::uint32_t ring_slot_count = 64;
  /// Consumer-side reclaim watermark for file-backed rings (bytes).
  std::size_t ring_reclaim_watermark = 0;
  /// When set, shm rings are file-backed under this directory
  /// ("<dir>/session-<id>.ring") so out-of-process clients can attach.
  std::string shm_dir;
  /// Pending-buffer cap for stream sessions (bytes).
  std::size_t stream_pending_cap = 64 * 1024;
};

/// What one session did, as the producer saw it.
struct SessionReport {
  std::uint64_t id = 0;
  std::size_t index = 0;          ///< Sweep-equivalent sample index.
  std::uint64_t seed = 0;         ///< job_seed(base_seed, index).
  TransportKind transport = TransportKind::kShm;
  std::uint64_t frames_produced = 0;  ///< run_frame calls (never skipped).
  std::uint64_t frames_streamed = 0;  ///< Frame records the client got.
  std::uint64_t frames_skipped = 0;   ///< Frames lost to backpressure.
  std::uint64_t gap_records = 0;      ///< Explicit gaps emitted.
  /// fold_record over every produced frame, delivered or skipped — equals
  /// the oracle's digest for sample `index` unconditionally.
  std::uint64_t producer_digest = 0;
  bool end_sent = false;   ///< End record reached the transport.
  bool completed = false;  ///< End sent and every accepted byte flushed.
};

class SimServer {
 public:
  /// The factory/plan pair is the same contract run_fleet_missions takes:
  /// `factory` deterministically builds one mission, `plan_for(seed)` is a
  /// pure function of the seed with events at or after the warm point.
  SimServer(support::MissionFactory factory, support::PlanFactory plan_for,
            ServeOptions options);
  ~SimServer();

  /// A freshly-admitted session, from the client's point of view.
  struct Opened {
    std::uint64_t id = 0;
    std::uint64_t seed = 0;
    /// In-process client endpoint (RingSource / StreamSource), always set.
    std::unique_ptr<FrameSource> source;
    /// Ring file an out-of-process client can FrameRing::attach() — only
    /// for shm sessions under a shm_dir.
    std::string ring_path;
  };

  /// Admits one session on `kind`'s transport, leasing a warm system and
  /// installing the next sweep index's fault plan. Throws arfs::Error when
  /// max_sessions are already active (admission control).
  [[nodiscard]] Opened open_session(TransportKind kind);

  /// Advances every active session by one frame (run_frame is NEVER gated
  /// on the client). Returns the number of sessions still producing.
  std::size_t pump();

  /// Pumps until every active session has produced its full frame budget.
  /// Terminates against arbitrarily stalled consumers — delivery of queued
  /// records is drain()'s job, not this one's.
  void pump_all();

  /// Retries queued deliveries (pending gaps, end records, stream buffer
  /// flushes) for sessions that finished producing. Returns true when every
  /// such session is fully flushed (its report is then `completed`).
  bool drain();

  /// Active = admitted and not yet fully delivered.
  [[nodiscard]] std::size_t active_sessions() const { return active_; }
  [[nodiscard]] std::size_t sessions_opened() const { return opened_; }
  [[nodiscard]] std::size_t sessions_rejected() const { return rejected_; }

  /// Report for any session this server admitted (active or finished).
  /// O(1); the reference stays valid for the server's lifetime.
  [[nodiscard]] const SessionReport& report(std::uint64_t id) const;

  [[nodiscard]] const ServeOptions& options() const { return options_; }
  [[nodiscard]] support::SystemPool::Stats pool_stats() const {
    return pool_.stats();
  }

 private:
  struct Slot;

  /// Reports per chunk: one chunk allocation per this many sessions.
  static constexpr std::size_t kReportsPerChunk = 256;

  /// Points `slot` at a transport of `kind` for session `opened.id` and
  /// fills in the client's side of `opened`.
  void attach_transport(Slot& slot, TransportKind kind, Opened& opened);
  /// One production step: run the frame, fold it, try to deliver (gap
  /// first, then the frame). Precondition: session still has budget.
  void pump_session(Slot& slot);
  /// Delivery-only step for a session past its budget: pending gap, end
  /// record, transport flush; releases the lease once the end is accepted.
  void drain_session(Slot& slot);
  /// Drains every finished session and, with `produce`, pumps the others.
  /// Completed sessions retire; the active slots are compacted in place,
  /// in admission order. Returns the sessions pumped; `all_flushed` says
  /// whether every finished session completed.
  std::size_t round(bool produce, bool& all_flushed);

  ServeOptions options_;
  support::PlanFactory plan_for_;
  support::SystemPool pool_;
  /// Every slot: [0, active_) hold the active sessions in admission order,
  /// the rest are idle. Declared after pool_, so leases return first.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::size_t active_ = 0;
  /// Session id - 1 indexes these chunks; a chunk never moves.
  std::vector<std::unique_ptr<SessionReport[]>> report_chunks_;
  std::size_t opened_ = 0;
  std::size_t rejected_ = 0;
};

/// Monotonic nanosecond stamp used for per-record latency measurement
/// (steady_clock; shared by server publish and client receive sides).
[[nodiscard]] std::uint64_t monotonic_ns();

}  // namespace arfs::serve
