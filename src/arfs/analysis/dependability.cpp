#include "arfs/analysis/dependability.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/common/hash.hpp"

namespace arfs::analysis {

namespace {

/// Trials are accumulated in fixed-size chunks and the chunk partials are
/// reduced in chunk order. Because the chunk size is a constant (not derived
/// from the thread count), the floating-point additions happen in exactly
/// the same order at every thread count — which is what makes the parallel
/// estimate bit-identical to the serial one.
constexpr std::uint32_t kTrialChunk = 1024;
// The fleet engine's default chunk must stay equal to the serial trial
// chunk — it is what makes the fleet estimate reproduce the BatchRunner
// oracle bit for bit (same partial boundaries, same fold order).
static_assert(kTrialChunk == sim::kFleetChunk);

/// Raw (un-normalized) accumulator over one chunk of trials.
struct Partial {
  double p_full = 0.0;
  double p_safe = 0.0;
  double p_loss = 0.0;
  double full_fraction = 0.0;
  double safe_fraction = 0.0;
  double failures = 0.0;
};

/// One Monte-Carlo trial, folded into `out`. `failure_times` is caller-owned
/// scratch (hoisted out of the trial loop — allocated once per chunk, not
/// per sample) and is the shared kernel of both execution engines: the
/// BatchRunner oracle and the sharded fleet path call exactly this code, so
/// their estimates can only differ in reduction order.
void simulate_trial(const DesignUnits& design, const MissionParams& mission,
                    std::uint64_t seed, std::vector<double>& failure_times,
                    Partial& out) {
  const double T = mission.mission_hours;
  const double lambda = mission.failure_rate_per_hour;

  // Each trial owns an independent RNG stream derived from its index, so
  // a trial's draws never depend on which worker ran it.
  Rng rng(seed);

  // Draw each component's failure instant; beyond T means it survives.
  failure_times.clear();
  int failures = 0;
  for (int unit = 0; unit < design.total; ++unit) {
    if (lambda <= 0) continue;
    // Single clamped draw: uniform01() is in [0, 1) and can return exactly
    // 0 (log of which is -inf); clamping to the smallest positive draw
    // keeps every trial's RNG consumption fixed at `total` draws, an
    // invariant the per-trial seeding above relies on.
    const double u = std::max(rng.uniform01(), 0x1.0p-53);
    const double t = -std::log(u) / lambda;  // Exp(lambda) lifetime
    if (t < T) {
      failure_times.push_back(t);
      ++failures;
    }
  }
  std::sort(failure_times.begin(), failure_times.end());
  out.failures += failures;

  // Walk the failure sequence, accumulating time at each service level.
  const int full_margin = design.total - design.full;  // failures tolerable
  const int safe_margin = design.total - design.safe;  // before losing level
  double full_time = T;
  double safe_time = T;
  bool lost = false;
  bool below_full = false;
  for (std::size_t i = 0; i < failure_times.size(); ++i) {
    const int failed_so_far = static_cast<int>(i) + 1;
    if (!below_full && failed_so_far > full_margin) {
      below_full = true;
      full_time = failure_times[i];
    }
    if (failed_so_far > safe_margin) {
      lost = true;
      safe_time = failure_times[i];
      break;
    }
  }

  if (!below_full) out.p_full += 1.0;
  if (!lost) out.p_safe += 1.0;
  if (lost) out.p_loss += 1.0;
  out.full_fraction += full_time / T;
  out.safe_fraction += safe_time / T;
}

Partial simulate_trials(const DesignUnits& design, const MissionParams& mission,
                        std::uint64_t base_seed, std::uint32_t first_trial,
                        std::uint32_t end_trial) {
  Partial out;
  std::vector<double> failure_times;
  failure_times.reserve(static_cast<std::size_t>(design.total));
  for (std::uint32_t trial = first_trial; trial < end_trial; ++trial) {
    simulate_trial(design, mission, sim::job_seed(base_seed, trial),
                   failure_times, out);
  }
  return out;
}

void check_params(const DesignUnits& design, const MissionParams& mission) {
  require(design.safe >= 1 && design.safe <= design.full &&
              design.full <= design.total,
          "need 1 <= safe <= full <= total");
  require(mission.mission_hours > 0 && mission.trials > 0,
          "mission must have positive duration and trials");
  require(mission.failure_rate_per_hour >= 0, "negative failure rate");
}

/// Shared final division — both engines normalize through the identical
/// arithmetic, in the identical field order.
DependabilityEstimate normalize(const Partial& sum, std::uint32_t trials) {
  DependabilityEstimate out;
  out.p_full_whole_mission = sum.p_full;
  out.p_safe_whole_mission = sum.p_safe;
  out.p_loss = sum.p_loss;
  out.full_service_fraction = sum.full_fraction;
  out.safe_or_better_fraction = sum.safe_fraction;
  out.mean_failures = sum.failures;
  const double n = static_cast<double>(trials);
  out.p_full_whole_mission /= n;
  out.p_safe_whole_mission /= n;
  out.p_loss /= n;
  out.full_service_fraction /= n;
  out.safe_or_better_fraction /= n;
  out.mean_failures /= n;
  return out;
}

}  // namespace

std::uint64_t DependabilityEstimate::digest() const {
  std::uint64_t h = kFnvBasis;
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(p_full_whole_mission));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(p_safe_whole_mission));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(p_loss));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(full_service_fraction));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(safe_or_better_fraction));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(mean_failures));
  return h;
}

DependabilityEstimate estimate_dependability(const DesignUnits& design,
                                             const MissionParams& mission,
                                             Rng& rng,
                                             sim::BatchRunner& runner) {
  check_params(design, mission);

  // One draw from the caller's stream roots the whole batch; every trial
  // seed derives from (base_seed, trial index) alone.
  const std::uint64_t base_seed = rng.next_u64();

  const std::size_t chunks =
      (mission.trials + kTrialChunk - 1) / kTrialChunk;
  std::vector<Partial> partials(chunks);
  runner.run(chunks, [&](std::size_t c) {
    const std::uint32_t first = static_cast<std::uint32_t>(c) * kTrialChunk;
    const std::uint32_t end =
        std::min(first + kTrialChunk, mission.trials);
    partials[c] = simulate_trials(design, mission, base_seed, first, end);
  });

  Partial sum;
  for (const Partial& p : partials) {  // chunk order: deterministic reduce
    sum.p_full += p.p_full;
    sum.p_safe += p.p_safe;
    sum.p_loss += p.p_loss;
    sum.full_fraction += p.full_fraction;
    sum.safe_fraction += p.safe_fraction;
    sum.failures += p.failures;
  }
  return normalize(sum, mission.trials);
}

DependabilityEstimate estimate_dependability(const DesignUnits& design,
                                             const MissionParams& mission,
                                             Rng& rng,
                                             sim::FleetRunner& fleet) {
  check_params(design, mission);
  const std::uint64_t base_seed = rng.next_u64();

  // Per-chunk accumulator: the running partial plus the hoisted
  // failure-times scratch (chunk-local, dropped by the fold).
  struct TrialAcc {
    Partial partial;
    std::vector<double> scratch;
  };
  TrialAcc total = fleet.reduce<TrialAcc>(
      mission.trials, base_seed,
      [&](const sim::FleetSample& sample, TrialAcc& acc) {
        if (acc.scratch.capacity() == 0) {
          acc.scratch.reserve(static_cast<std::size_t>(design.total));
        }
        simulate_trial(design, mission, sample.seed, acc.scratch,
                       acc.partial);
      },
      [](TrialAcc& into, TrialAcc& part) {
        // Field order matches the serial chunk fold above exactly — the
        // floating-point addition sequence is the invariant.
        into.partial.p_full += part.partial.p_full;
        into.partial.p_safe += part.partial.p_safe;
        into.partial.p_loss += part.partial.p_loss;
        into.partial.full_fraction += part.partial.full_fraction;
        into.partial.safe_fraction += part.partial.safe_fraction;
        into.partial.failures += part.partial.failures;
      });
  return normalize(total.partial, mission.trials);
}

DependabilityEstimate estimate_dependability(const DesignUnits& design,
                                             const MissionParams& mission,
                                             Rng& rng) {
  return estimate_dependability(design, mission, rng,
                                sim::BatchRunner::shared());
}

namespace {

/// One trial's evidence row: simulate_trial into a zeroed Partial isolates
/// exactly the values the trial would add to a chunk accumulator.
TrialEvidence evidence_row(const DesignUnits& design,
                           const MissionParams& mission,
                           std::uint64_t seed) {
  // Workers materialize rows through a per-sample functor, so the
  // failure-times scratch is hoisted per thread instead of per chunk.
  static thread_local std::vector<double> scratch;
  if (scratch.capacity() < static_cast<std::size_t>(design.total)) {
    scratch.reserve(static_cast<std::size_t>(design.total));
  }
  Partial one;
  simulate_trial(design, mission, seed, scratch, one);
  TrialEvidence row;
  row.full_fraction = one.full_fraction;
  row.safe_fraction = one.safe_fraction;
  row.failures = one.failures;
  if (one.p_full > 0) row.flags |= TrialEvidence::kFullMission;
  if (one.p_safe > 0) row.flags |= TrialEvidence::kSafeMission;
  if (one.p_loss > 0) row.flags |= TrialEvidence::kLoss;
  return row;
}

/// Replays one row into a chunk accumulator with exactly the per-field
/// addition sequence simulate_trial performs — the guard on the unit
/// counters mirrors the trial's conditional `+= 1.0`s, so the chunk partial
/// rebuilt from rows is bit-identical to the directly accumulated one.
void fold_row(const TrialEvidence& row, Partial& acc) {
  if ((row.flags & TrialEvidence::kFullMission) != 0) acc.p_full += 1.0;
  if ((row.flags & TrialEvidence::kSafeMission) != 0) acc.p_safe += 1.0;
  if ((row.flags & TrialEvidence::kLoss) != 0) acc.p_loss += 1.0;
  acc.full_fraction += row.full_fraction;
  acc.safe_fraction += row.safe_fraction;
  acc.failures += row.failures;
}

/// Folds a chunk partial into the running sum — the identical field order
/// of the serial reduce and the fleet fold above.
void fold_chunk(const Partial& part, Partial& sum) {
  sum.p_full += part.p_full;
  sum.p_safe += part.p_safe;
  sum.p_loss += part.p_loss;
  sum.full_fraction += part.full_fraction;
  sum.safe_fraction += part.safe_fraction;
  sum.failures += part.failures;
}

void digest_row(std::uint64_t& h, const TrialEvidence& row) {
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(row.full_fraction));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(row.safe_fraction));
  h = fnv_mix(h, std::bit_cast<std::uint64_t>(row.failures));
  h = fnv_mix(h, row.flags);
}

}  // namespace

EvidenceSweep estimate_dependability_evidence(const DesignUnits& design,
                                              const MissionParams& mission,
                                              Rng& rng,
                                              sim::FleetRunner& fleet) {
  check_params(design, mission);
  const std::uint64_t base_seed = rng.next_u64();

  EvidenceSweep sweep;
  sweep.rows = mission.trials;
  std::uint64_t h = kFnvBasis;
  Partial sum;

  const auto row_fn = [&](const sim::FleetSample& sample) {
    return evidence_row(design, mission, sample.seed);
  };

  if (fleet.options().arena != nullptr) {
    // Arena route: rows land in sealed chunk regions (RSS bounded by
    // in-flight chunks) and stream back in global chunk order — which is
    // the serial fold order, so the rebuilt estimate matches bit for bit.
    sweep.arena_backed = true;
    sim::ArenaCursor<TrialEvidence> cursor =
        fleet.materialize<TrialEvidence>(mission.trials, base_seed, row_fn,
                                         *fleet.options().arena);
    cursor.for_each_chunk(
        [&](const TrialEvidence* rows, std::size_t n, std::size_t) {
          Partial chunk;
          for (std::size_t i = 0; i < n; ++i) {
            fold_row(rows[i], chunk);
            digest_row(h, rows[i]);
          }
          fold_chunk(chunk, sum);
        });
  } else {
    // In-RAM baseline: same rows, same fold, heap-resident (linear RSS).
    const sim::ShardPlan p = fleet.plan(mission.trials);
    std::vector<TrialEvidence> rows(mission.trials);
    fleet.run_plan(p, [&](std::size_t, std::size_t shard, std::size_t first,
                          std::size_t end) {
      for (std::size_t i = first; i < end; ++i) {
        rows[i] = row_fn(sim::FleetSample{i, sim::job_seed(base_seed, i),
                                          shard});
      }
    });
    for (std::size_t c = 0; c < p.chunks(); ++c) {
      const sim::ShardPlan::Range r = p.samples_of_chunk(c);
      Partial chunk;
      for (std::size_t i = r.first; i < r.end; ++i) {
        fold_row(rows[i], chunk);
        digest_row(h, rows[i]);
      }
      fold_chunk(chunk, sum);
    }
  }

  sweep.evidence_digest = h;
  sweep.estimate = normalize(sum, mission.trials);
  return sweep;
}

DesignPair section51_designs(int units_full_service, int units_safe_service,
                             int spares) {
  require(units_safe_service >= 1 &&
              units_safe_service <= units_full_service && spares >= 0,
          "need 1 <= safe <= full and spares >= 0");
  DesignPair pair;
  // Masking: full service plus spares; any drop below full is loss (the
  // original framework masks or fails — it cannot degrade).
  pair.masking.total = units_full_service + spares;
  pair.masking.full = units_full_service;
  pair.masking.safe = units_full_service;
  // Reconfiguration: safe-service floor plus spares; degrades gracefully.
  pair.reconfig.total = units_safe_service + spares;
  pair.reconfig.full = units_full_service;  // may exceed total: then the
                                            // design never offers full
  pair.reconfig.safe = units_safe_service;
  // Guard the full <= total invariant: a reconfig design smaller than the
  // full-service requirement simply caps at its total.
  pair.reconfig.full = std::min(pair.reconfig.full, pair.reconfig.total);
  return pair;
}

}  // namespace arfs::analysis
