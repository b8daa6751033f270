// Mission-wide crash-point sweep.
//
// The correctness gate for durable storage under any sync policy: fail-stop
// one processor at *every* frame of a mission and check that the state its
// devices recover is exactly the state of the last durable commit epoch —
// never a torn record, never anything newer than what was synced, never
// anything older. Crash points are independent of each other, so the sweep
// fans them across a sim::BatchRunner and inherits the batch engine's
// determinism contract: the report is bit-identical at any thread count.
//
// Two execution strategies produce bit-identical reports:
//  * from-scratch (checkpointing off): each job builds a fresh mission,
//    replays it up to its own crash frame and judges its victim in place —
//    F crash points simulate F·(F+1)/2 frames and build F missions. This is
//    the oracle;
//  * rolling (the default): the crash points are split into one interval
//    per runner thread, and one mission rolls forward through each. A point
//    never crashes its mission: the mission runs one frame, a JudgeBench —
//    a spare victim processor and cohort — is refreshed from the live
//    victim and cohort in place (allocating nothing once warm), and the
//    bench is crashed and judged. A serial baseline pass runs the mission
//    up to the last interval's start, records the shared commit-boundary
//    fingerprint table and drops a core::SystemCheckpoint at each inner
//    interval's start; the first interval starts from a fresh mission, each
//    inner one restores its checkpoint once, and the baseline mission
//    itself rolls the last interval, extending the fingerprint table as it
//    goes. A point costs one frame, the bench refresh and its verdict,
//    whatever the mission's length; the sweep simulates F frames plus the
//    baseline's (exactly F at one thread) and builds one mission per
//    interval. Results are flattened in crash-frame order, so the report
//    does not depend on the schedule.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/types.hpp"
#include "arfs/core/system.hpp"
#include "arfs/failstop/processor.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/storage/durable/quorum.hpp"

namespace arfs::support {

/// One freshly built mission: a system plus whatever owns the objects the
/// system borrows (spec, plant models, apps' external state). The keepalive
/// is destroyed after the system, never touched otherwise.
struct CrashMission {
  std::shared_ptr<void> keepalive;  // declared first: destroyed last
  std::unique_ptr<core::System> system;
};

/// Builds one mission from scratch. Must be deterministic (same mission
/// every call) and thread-safe to call concurrently — each invocation must
/// share no mutable state with the others.
///
/// The rolling strategy restores each inner interval's baseline checkpoint
/// into a mission it builds, once per job, and runs on from there. So
/// core::SystemCheckpoint must capture everything that decides a mission's
/// future — everything its apps and the objects in the keepalive mutate
/// included (apps do so through their checkpoint hooks). And the verdict is
/// reached on a JudgeBench copy of the victim, so the restore_state of a
/// Processor and of a QuorumGroup (each layer's one copy body, which also
/// fills and restores a checkpoint's spares) must copy everything recovery
/// and the cohort's catch-up read. State either misses would make the
/// sweep drift from the from-scratch oracle, which judges the mission's own
/// victim.
using MissionFactory = std::function<CrashMission()>;

struct CrashSweepOptions {
  /// Mission length; the sweep crashes the victim after frame 1, 2, …,
  /// frames — one job per crash point.
  Cycle frames = 0;
  /// The processor to fail-stop. Must carry a durability engine and must
  /// not be failed by the mission's own fault plan.
  ProcessorId victim;

  /// Device fault armed at the crash point, on top of the ordinary loss of
  /// the unsynced tail.
  enum class IoFault : std::uint8_t {
    kNone,
    /// The final in-flight write tears: `tear_keep` bytes of the buffered
    /// tail survive onto the durable image. Recovery may salvage extra
    /// whole records but must truncate the torn one — the durable-epoch
    /// floor still holds (synced bytes are intact).
    kTornWrite,
    /// One bit of the durable journal image flips (latent media fault).
    /// This can land in *synced* records, so recovery may legitimately
    /// truncate below the durable-epoch floor; the sweep then only
    /// requires the recovered state to be an exact commit boundary.
    kBitFlip,
  };
  IoFault io_fault = IoFault::kNone;
  /// Buffered-tail bytes a torn write leaves on the image (kTornWrite).
  std::size_t tear_keep = 7;

  /// Also verify warm-start relocation at every crash point: after the
  /// fail-stop, catch the victim's replica cohort up and assert the elected
  /// shipper-leader's replica is bit-identical to the recovered
  /// commit-boundary fingerprint, and the commit rule: the cohort keeps a
  /// live majority and its majority-acknowledged commit id equals the epoch
  /// the warm start served (at the default one-member cohort the rule is
  /// the lone member's own cursor, so it always holds). The factory's
  /// mission must enable SystemOptions::journal_shipping.
  bool warm_start = false;

  /// Quorum adversary (warm_start only): at every crash point, fail-stop
  /// this many cohort members — always the current elected leader,
  /// re-electing between kills — before the catch-up runs. Must leave a
  /// live majority (at most the minority of the cohort).
  std::uint32_t quorum_kills = 0;

  /// The rolling O(F) strategy; false = the from-scratch oracle.
  bool checkpointing = true;
};

/// One crash point's verdict. `match` asserts the fail-stop contract:
///  * no durable commit is lost — the recovered epoch is at least the
///    engine's last_durable_epoch at crash time (the guarantee floor);
///  * the recovered state is an *exact* frame-commit boundary — its
///    fingerprint equals the victim's in-memory fingerprint as of the
///    recovered epoch, so a crash can shorten history but never tear it.
/// Under every sync policy without torn-write faults the recovered epoch
/// equals the floor exactly; a torn write may durably salvage extra whole
/// records, which recovery is allowed (and checked) to use.
struct CrashPoint {
  Cycle crash_frame = 0;  ///< The victim failed after this many frames.
  /// The guarantee floor: the victim's in-memory fingerprint as of the
  /// last durable commit epoch before the crash.
  std::uint64_t expected_fingerprint = 0;
  std::uint64_t recovered_fingerprint = 0;
  std::uint64_t durable_epoch = 0;   ///< last_durable_epoch at crash time.
  std::uint64_t recovered_epoch = 0; ///< RecoveryReport::last_epoch.
  /// Frame commits the crash actually lost: frames run minus the recovered
  /// epoch. Bounded by the policy's watermark; zero under every-commit.
  std::uint64_t lost_frames = 0;
  bool journal_truncated = false;  ///< Recovery found a torn/corrupt tail.
  bool match = false;

  // --- warm-start fields (CrashSweepOptions::warm_start; zero otherwise) ---
  std::uint64_t replica_epoch = 0;        ///< Leader replica's commit epoch.
  std::uint64_t replica_fingerprint = 0;  ///< Leader replica's fingerprint.
  /// Journal bytes the post-crash catch-up still had to ship.
  std::uint64_t replica_catchup_bytes = 0;
  /// The catch-up lost its cursor and fell back to a full-copy reseed.
  bool replica_reseeded = false;
  /// The warm-start contract: after catch-up the leader's replica is
  /// bit-identical to the recovered commit boundary (same fingerprint as
  /// the recovered store, and an exact frame commit of this mission), and
  /// the cohort's live majority acknowledges exactly that epoch.
  bool replica_match = false;
};

struct CrashSweepReport {
  std::vector<CrashPoint> points;  ///< One per crash frame, in order.
  std::size_t mismatches = 0;
  /// Warm-start points whose replica missed the contract (0 unless the
  /// sweep ran with warm_start).
  std::size_t replica_mismatches = 0;
  std::uint64_t max_lost_frames = 0;
  /// Largest post-crash catch-up any warm-start point needed.
  std::uint64_t max_replica_catchup_bytes = 0;
  /// Warm-start points that fell back to a full-copy reseed.
  std::size_t replica_reseeds = 0;

  // --- execution-cost metrics; deliberately OUTSIDE digest() so the
  // rolling and from-scratch strategies stay digest-comparable ---
  /// Mission frames simulated across the baseline pass and every job:
  /// frames·(frames+1)/2 from scratch; rolling, one frame per crash point
  /// plus the baseline's frames up to the last interval's start (frames
  /// exactly at one thread).
  std::uint64_t simulated_frames = 0;
  /// Missions the factory built: one per interval rolling (the baseline
  /// mission rolls the last one), or F from scratch.
  std::uint64_t missions_built = 0;

  [[nodiscard]] bool all_match() const {
    return mismatches == 0 && replica_mismatches == 0;
  }
  /// Order-sensitive FNV-1a digest of every point — one number to compare
  /// a serial reference sweep against a parallel one, and the checkpointed
  /// strategy against the from-scratch oracle.
  [[nodiscard]] std::uint64_t digest() const;
};

/// Fail-stops `options.victim` after every frame in [1, options.frames] of
/// the factory's mission, in parallel, and verifies each recovery.
[[nodiscard]] CrashSweepReport run_crash_sweep(
    const MissionFactory& factory, const CrashSweepOptions& options,
    sim::BatchRunner& runner = sim::BatchRunner::shared());

/// One crash point's verdict: arms options.io_fault on `victim`'s journal,
/// fail-stops it (recovery runs inside fail()) and checks the recovered
/// store against `fingerprints` (the victim's committed-store fingerprint
/// after each commit epoch, index 0 = the empty store; it must hold every
/// epoch up to `crash_frame`). Under options.warm_start it then kills
/// `cohort`'s leader options.quorum_kills times, catches the cohort up
/// (QuorumGroup::ship_round) and checks the leader's replica too; `cohort`
/// is the victim's replica cohort then, and may be null otherwise. Both
/// must stand exactly at `crash_frame` frames run, and both are left
/// crashed: the from-scratch oracle judges its throw-away mission's victim
/// in place, the rolling sweep a JudgeBench.
[[nodiscard]] CrashPoint judge_crash_point(
    failstop::Processor& victim,
    storage::durable::quorum::QuorumGroup* cohort,
    const CrashSweepOptions& options, Cycle crash_frame,
    std::span<const std::uint64_t> fingerprints);

/// A spare copy of a mission's crash victim, for judging crash points
/// without crashing the mission: the victim's Processor::spare() (its own
/// memory engine, built from the victim engine's options) and, when given
/// the victim's cohort, a QuorumGroup on that engine (built from the
/// cohort's options) — the same spares a core::SystemCheckpoint holds.
/// refresh() copies the live victim and cohort straight into the bench
/// through their restore_state, keeping every buffer; so once a refresh has
/// seen states as large it allocates nothing. The bench's cohort keeps its
/// own shipper and batch buffer, and grows or sheds members to match the
/// live cohort. A bench is built once per job and refreshed before each
/// point.
class JudgeBench {
 public:
  /// Precondition: `victim` carries a durability engine, and `cohort`, when
  /// not null, is a cohort on that engine.
  JudgeBench(const failstop::Processor& victim,
             const storage::durable::quorum::QuorumGroup* cohort);

  /// Makes the bench an exact copy of `victim` and, if the bench has one,
  /// its cohort of `cohort` — the pair it was built from, at any frame.
  void refresh(const failstop::Processor& victim,
               const storage::durable::quorum::QuorumGroup* cohort);

  [[nodiscard]] failstop::Processor& victim() { return victim_; }
  /// Null when the bench was built without a cohort.
  [[nodiscard]] storage::durable::quorum::QuorumGroup* cohort() {
    return cohort_.has_value() ? &*cohort_ : nullptr;
  }

 private:
  failstop::Processor victim_;
  std::optional<storage::durable::quorum::QuorumGroup> cohort_;
};

}  // namespace arfs::support
