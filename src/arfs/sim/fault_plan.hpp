// Fault injection.
//
// The paper assumes a reconfiguration trigger whose source "might be a
// hardware failure, a software functional failure, the failure of software to
// meet its timing constraints, or a change in the external environment"
// (section 4). A FaultPlan is a deterministic schedule of such triggers; the
// system under test consumes them as the virtual clock passes each instant.
//
// Plans can be authored explicitly (scenario tests, examples) or generated
// from a seeded random campaign (property sweeps, benchmarks).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "arfs/common/ids.hpp"
#include "arfs/common/rng.hpp"
#include "arfs/common/types.hpp"

namespace arfs::sim {

enum class FaultKind {
  kProcessorFailStop,   ///< A fail-stop processor halts (volatile lost).
  kProcessorRepair,     ///< A previously failed processor is restored.
  kEnvironmentChange,   ///< An environmental factor changes value.
  kTimingOverrun,       ///< An application exceeds its frame budget once.
  kSoftwareFault,       ///< An application signals a functional failure.
  // I/O faults against a processor's durable stable-storage devices.
  // They only bite on processors with durability enabled; elsewhere they
  // are counted and ignored (the in-memory model has no device to hurt).
  kJournalSyncFail,     ///< The journal's next sync fails once.
  kJournalTornWrite,    ///< The next crash tears the final unsynced record.
  kJournalBitFlip,      ///< One durable journal bit flips (media fault).
  // Quorum replica-cohort events (processors with quorum shipping only;
  // counted and ignored elsewhere, like the journal faults above).
  kQuorumMemberFail,    ///< One cohort member fail-stops (acks survive).
  kQuorumMemberRepair,  ///< A failed cohort member returns to service.
};

/// One scheduled injection. Which fields are meaningful depends on `kind`:
/// processor and journal events use `processor`; environment changes use
/// `factor` and `new_value`; timing/software faults use `app`. Journal
/// faults reuse `new_value` as a parameter: torn-write keep-bytes for
/// kJournalTornWrite, corruption seed for kJournalBitFlip, and the cohort
/// member id for the quorum events.
struct FaultEvent {
  SimTime when = 0;
  FaultKind kind = FaultKind::kProcessorFailStop;
  ProcessorId processor{};
  FactorId factor{};
  std::int64_t new_value = 0;
  AppId app{};
  std::string note;
};

/// A time-ordered schedule of fault events.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Adds an event. Events may be added in any order; the plan keeps itself
  /// sorted by (time, insertion order).
  void add(FaultEvent event);

  /// Room for `events` events in all, so a generator that knows its event
  /// count makes one allocation.
  void reserve(std::size_t events) { events_.reserve(events); }

  // Convenience builders.
  void fail_processor(SimTime when, ProcessorId p, std::string note = {});
  void repair_processor(SimTime when, ProcessorId p, std::string note = {});
  void change_environment(SimTime when, FactorId f, std::int64_t value,
                          std::string note = {});
  void timing_overrun(SimTime when, AppId app, std::string note = {});
  void software_fault(SimTime when, AppId app, std::string note = {});
  void journal_sync_fail(SimTime when, ProcessorId p, std::string note = {});
  /// `keep_bytes` of the unsynced tail survive the next crash (a torn final
  /// record); 0 keeps an engine-chosen prefix of a few bytes.
  void journal_torn_write(SimTime when, ProcessorId p,
                          std::int64_t keep_bytes = 0, std::string note = {});
  void journal_bit_flip(SimTime when, ProcessorId p, std::int64_t seed,
                        std::string note = {});
  /// Fail-stops / repairs member `member` of `p`'s quorum replica cohort.
  void quorum_member_fail(SimTime when, ProcessorId p, std::int64_t member,
                          std::string note = {});
  void quorum_member_repair(SimTime when, ProcessorId p, std::int64_t member,
                            std::string note = {});

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Returns all events with `when` <= `until` that have not been consumed
  /// yet and marks them consumed. Consumption order is (time, insertion).
  /// The span views the plan's own events (nothing is copied): it stays
  /// valid until the plan is next modified or assigned.
  [[nodiscard]] std::span<const FaultEvent> consume_until(SimTime until);

  /// Resets consumption so the same plan can be replayed.
  void rewind() { next_ = 0; }

  /// Events already handed out by consume_until (the consumption cursor a
  /// copied plan carries — whole-system checkpoints hash and compare it).
  [[nodiscard]] std::size_t consumed() const { return next_; }

 private:
  std::vector<FaultEvent> events_;
  std::size_t next_ = 0;
};

/// Parameters for a randomly generated fault campaign.
struct CampaignParams {
  SimTime horizon = 0;               ///< Events are drawn in [0, horizon).
  std::size_t processor_failures = 0;
  std::size_t environment_changes = 0;
  std::size_t timing_overruns = 0;
  std::size_t software_faults = 0;
  /// Durable-storage I/O faults (drawn over `processors`).
  std::size_t journal_sync_fails = 0;
  std::size_t journal_torn_writes = 0;
  std::size_t journal_bit_flips = 0;
  std::vector<ProcessorId> processors;  ///< Candidates for processor events.
  std::vector<FactorId> factors;        ///< Candidates for env changes.
  std::int64_t factor_min = 0;          ///< Env value range (inclusive).
  std::int64_t factor_max = 1;
  std::vector<AppId> apps;              ///< Candidates for app faults.
};

/// Draws a deterministic random campaign from `rng`.
[[nodiscard]] FaultPlan generate_campaign(const CampaignParams& params,
                                          Rng& rng);

[[nodiscard]] std::string to_string(FaultKind kind);

}  // namespace arfs::sim
