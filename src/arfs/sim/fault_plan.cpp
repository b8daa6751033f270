#include "arfs/sim/fault_plan.hpp"

#include <algorithm>
#include <utility>

#include "arfs/common/check.hpp"

namespace arfs::sim {

void FaultPlan::add(FaultEvent event) {
  require(event.when >= 0, "fault events cannot precede system start");
  // Stable insertion keeps same-time events in authoring order.
  auto it = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) { return a.when < b.when; });
  require(next_ == 0, "cannot add events after consumption started");
  events_.insert(it, std::move(event));
}

void FaultPlan::fail_processor(SimTime when, ProcessorId p, std::string note) {
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kProcessorFailStop;
  e.processor = p;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::repair_processor(SimTime when, ProcessorId p,
                                 std::string note) {
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kProcessorRepair;
  e.processor = p;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::change_environment(SimTime when, FactorId f,
                                   std::int64_t value, std::string note) {
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kEnvironmentChange;
  e.factor = f;
  e.new_value = value;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::timing_overrun(SimTime when, AppId app, std::string note) {
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kTimingOverrun;
  e.app = app;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::software_fault(SimTime when, AppId app, std::string note) {
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kSoftwareFault;
  e.app = app;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::journal_sync_fail(SimTime when, ProcessorId p,
                                  std::string note) {
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kJournalSyncFail;
  e.processor = p;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::journal_torn_write(SimTime when, ProcessorId p,
                                   std::int64_t keep_bytes, std::string note) {
  require(keep_bytes >= 0, "torn-write keep bytes cannot be negative");
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kJournalTornWrite;
  e.processor = p;
  e.new_value = keep_bytes;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::journal_bit_flip(SimTime when, ProcessorId p,
                                 std::int64_t seed, std::string note) {
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kJournalBitFlip;
  e.processor = p;
  e.new_value = seed;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::quorum_member_fail(SimTime when, ProcessorId p,
                                   std::int64_t member, std::string note) {
  require(member >= 0, "quorum member id cannot be negative");
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kQuorumMemberFail;
  e.processor = p;
  e.new_value = member;
  e.note = std::move(note);
  add(std::move(e));
}

void FaultPlan::quorum_member_repair(SimTime when, ProcessorId p,
                                     std::int64_t member, std::string note) {
  require(member >= 0, "quorum member id cannot be negative");
  FaultEvent e;
  e.when = when;
  e.kind = FaultKind::kQuorumMemberRepair;
  e.processor = p;
  e.new_value = member;
  e.note = std::move(note);
  add(std::move(e));
}

std::span<const FaultEvent> FaultPlan::consume_until(SimTime until) {
  const std::size_t first = next_;
  while (next_ < events_.size() && events_[next_].when <= until) ++next_;
  return std::span<const FaultEvent>(events_).subspan(first, next_ - first);
}

FaultPlan generate_campaign(const CampaignParams& params, Rng& rng) {
  require(params.horizon > 0, "campaign horizon must be positive");
  FaultPlan plan;

  const auto draw_time = [&] {
    return static_cast<SimTime>(
        rng.uniform(0, static_cast<std::uint64_t>(params.horizon - 1)));
  };

  if (params.processor_failures > 0) {
    require(!params.processors.empty(),
            "processor failures requested but no processors given");
  }
  for (std::size_t i = 0; i < params.processor_failures; ++i) {
    const auto idx = rng.uniform(0, params.processors.size() - 1);
    plan.fail_processor(draw_time(), params.processors[idx], "campaign");
  }

  if (params.environment_changes > 0) {
    require(!params.factors.empty(),
            "environment changes requested but no factors given");
    require(params.factor_min <= params.factor_max,
            "empty environment value range");
  }
  for (std::size_t i = 0; i < params.environment_changes; ++i) {
    const auto idx = rng.uniform(0, params.factors.size() - 1);
    const auto span =
        static_cast<std::uint64_t>(params.factor_max - params.factor_min);
    const std::int64_t value =
        params.factor_min + static_cast<std::int64_t>(rng.uniform(0, span));
    plan.change_environment(draw_time(), params.factors[idx], value,
                            "campaign");
  }

  if (params.timing_overruns + params.software_faults > 0) {
    require(!params.apps.empty(),
            "application faults requested but no apps given");
  }
  for (std::size_t i = 0; i < params.timing_overruns; ++i) {
    const auto idx = rng.uniform(0, params.apps.size() - 1);
    plan.timing_overrun(draw_time(), params.apps[idx], "campaign");
  }
  for (std::size_t i = 0; i < params.software_faults; ++i) {
    const auto idx = rng.uniform(0, params.apps.size() - 1);
    plan.software_fault(draw_time(), params.apps[idx], "campaign");
  }

  const std::size_t io_faults = params.journal_sync_fails +
                                params.journal_torn_writes +
                                params.journal_bit_flips;
  if (io_faults > 0) {
    require(!params.processors.empty(),
            "journal faults requested but no processors given");
  }
  for (std::size_t i = 0; i < params.journal_sync_fails; ++i) {
    const auto idx = rng.uniform(0, params.processors.size() - 1);
    plan.journal_sync_fail(draw_time(), params.processors[idx], "campaign");
  }
  for (std::size_t i = 0; i < params.journal_torn_writes; ++i) {
    const auto idx = rng.uniform(0, params.processors.size() - 1);
    // Keep a small random prefix so tears land at varied record offsets.
    const auto keep = static_cast<std::int64_t>(rng.uniform(1, 24));
    plan.journal_torn_write(draw_time(), params.processors[idx], keep,
                            "campaign");
  }
  for (std::size_t i = 0; i < params.journal_bit_flips; ++i) {
    const auto idx = rng.uniform(0, params.processors.size() - 1);
    const auto seed = static_cast<std::int64_t>(rng.next_u64() >> 1);
    plan.journal_bit_flip(draw_time(), params.processors[idx], seed,
                          "campaign");
  }

  return plan;
}

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kProcessorFailStop: return "processor-fail-stop";
    case FaultKind::kProcessorRepair:   return "processor-repair";
    case FaultKind::kEnvironmentChange: return "environment-change";
    case FaultKind::kTimingOverrun:     return "timing-overrun";
    case FaultKind::kSoftwareFault:     return "software-fault";
    case FaultKind::kJournalSyncFail:   return "journal-sync-fail";
    case FaultKind::kJournalTornWrite:  return "journal-torn-write";
    case FaultKind::kJournalBitFlip:    return "journal-bit-flip";
    case FaultKind::kQuorumMemberFail:  return "quorum-member-fail";
    case FaultKind::kQuorumMemberRepair: return "quorum-member-repair";
  }
  return "?";
}

}  // namespace arfs::sim
