// fleet_wide: a Monte-Carlo mission fleet on the 32-app chain spec.
//
// Each op leases the pooled warm system, rewinds it, installs a 64-frame
// environment campaign drawn from the seed (4 severity changes), runs the
// frames one run_frame call at a time, checks SP1-SP4 on the trace and
// folds System::digest(). Per-app core work and string-keyed StableStorage
// writes dominate, so frame-cost work shows here first.
#include <memory>
#include <optional>

#include "arfs/core/system.hpp"
#include "arfs/props/report.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench.hpp"
#include "chain_mission.hpp"
#include "oracles.hpp"

namespace perfbench {
namespace {

using namespace arfs;

constexpr std::size_t kApps = 32;
constexpr Cycle kWarmupFrames = 8;
constexpr Cycle kMissionFrames = 64;
constexpr std::size_t kSeverityChanges = 4;
/// Ops per block: about 40 ms of work.
constexpr std::size_t kOpsPerBlock = 16;
constexpr std::size_t kWarmOps = 4;
/// Ops per second of --seconds: fixes the op count, never a time bound.
constexpr std::size_t kOpsPerSecond = 350;

support::PlanFactory make_plans(const core::ReconfigSpec& spec) {
  return chain_plans(spec, kSeverityChanges, kWarmupFrames, kMissionFrames);
}

std::shared_ptr<core::ReconfigSpec> make_spec() {
  support::ChainSpecParams params;
  params.configs = 4;
  params.apps = kApps;
  params.with_recovery_edges = true;
  return std::make_shared<core::ReconfigSpec>(
      support::make_chain_spec(params));
}

/// Chunk accumulator mirroring run_fleet_missions' digest fold, so a block's
/// digest equals the library sweep's report digest for the same samples.
struct Acc {
  std::uint64_t chunk_digest = kFnvBasis;
  std::uint64_t digest = kFnvBasis;
};

class FleetWide final : public Workload {
 public:
  FleetWide(const RunConfig& config, Tracer& tracer)
      : config_(config), tracer_(tracer) {
    const std::size_t total =
        kOpsPerSecond * static_cast<std::size_t>(config.seconds);
    blocks_per_segment_ =
        (total + kSegments * kOpsPerBlock - 1) / (kSegments * kOpsPerBlock);
    if (config.trace) {
      tracer_.enable(kSegments * blocks_per_segment_ * kOpsPerBlock *
                     (kMissionFrames + 8));
    }
  }

  std::size_t blocks_per_segment() const override {
    return blocks_per_segment_;
  }

  void setup(std::size_t segment) override {
    spec_ = make_spec();
    factory_ = chain_factory(spec_);
    plans_ = make_plans(*spec_);
    pool_ = std::make_unique<support::SystemPool>(factory_, kWarmupFrames);
    fleet_ = std::make_unique<sim::FleetRunner>(
        sim::FleetOptions{1, 0, sim::kFleetChunk, nullptr});
    // Untimed warm-up pass: the same op path over seeds no block uses.
    (void)run_ops(sim::job_seed(~config_.seed, segment), kWarmOps, false);
  }

  std::uint64_t run_block(std::size_t segment, std::size_t block) override {
    const std::size_t index = segment * blocks_per_segment_ + block;
    const std::uint64_t base = sim::job_seed(config_.seed, index);
    block_seeds_.push_back(base);
    const std::uint64_t digest = run_ops(base, kOpsPerBlock, true);
    fnv_mix(run_digest_, digest);
    return kOpsPerBlock;
  }

  void teardown() override {
    pool_.reset();
    fleet_.reset();
  }

  LatencyHistogram& frames() override { return frames_; }

  void finish(const std::vector<Tracer::Totals>& totals,
              RunResult& result) override {
    result.failed += failed_ops_;
    if (failed_ops_ > 0) {
      result.correct = false;
      result.problems.push_back(std::to_string(failed_ops_) +
                                " ops broke SP1-SP4");
    }
    result.run_digest = run_digest_;
    gate_digest(config_,
                recorded_oracle("fleet_wide", config_.seed, config_.seconds),
                [&] { return oracle_digest(); }, result);

    const auto t = [&](SpanName n) -> const Tracer::Totals& {
      return totals[static_cast<std::size_t>(n)];
    };
    const double ops = static_cast<double>(result.attempted);
    const double traced_ops = static_cast<double>(t(SpanName::kOp).calls);
    set_layer(result, "core.run_frame_us", per_call_us(t(SpanName::kRunFrame)));
    set_layer(result, "core.run_frame.allocs",
              per_call_allocs(t(SpanName::kRunFrame)));
    set_layer(result, "support.pool.lease_us",
              per_call_us(t(SpanName::kPoolLease)));
    set_layer(result, "core.restore_us", per_call_us(t(SpanName::kRestore)));
    set_layer(result, "core.restore.allocs",
              per_call_allocs(t(SpanName::kRestore)));
    set_layer(result, "props.check_trace_us",
              per_call_us(t(SpanName::kCheckTrace)));
    set_layer(result, "props.check_trace.allocs",
              per_call_allocs(t(SpanName::kCheckTrace)));
    set_layer(result, "core.digest_us", per_call_us(t(SpanName::kDigest)));
    set_layer(result, "sim.fleet.self_us",
              traced_ops > 0 ? static_cast<double>(
                                   t(SpanName::kFleetReduce).self_ns) /
                                   1e3 / traced_ops
                             : 0.0);
    set_layer(result, "core.reconfigs_per_op",
              ops > 0 ? static_cast<double>(reconfigs_) / ops : 0.0);
  }

 private:
  /// Runs `n` ops as one FleetRunner::reduce rooted at `base_seed`; returns
  /// the block digest.
  std::uint64_t run_ops(std::uint64_t base_seed, std::size_t n, bool timed) {
    Tracer::Scope reduce_span(tracer_, SpanName::kFleetReduce);
    const Acc total = fleet_->reduce<Acc>(
        n, base_seed,
        [&](const sim::FleetSample& sample, Acc& acc) {
          tracer_.set_op(++op_id_);
          Tracer::Scope op_span(tracer_, SpanName::kOp);
          std::optional<support::SystemPool::Lease> lease;
          {
            Tracer::Scope s(tracer_, SpanName::kPoolLease);
            lease.emplace(pool_->lease());
          }
          core::System& sys = lease->mission().system();
          {
            Tracer::Scope s(tracer_, SpanName::kRestore);
            lease->mission().reset();
          }
          {
            Tracer::Scope s(tracer_, SpanName::kPlan);
            sys.set_fault_plan(plans_(sample.seed));
          }
          const std::uint64_t reconfigs_before =
              sys.scram().stats().reconfigs_completed;
          for (Cycle f = 0; f < kMissionFrames; ++f) {
            Tracer::Scope s(tracer_, SpanName::kRunFrame);
            const std::int64_t start = now_ns();
            sys.run_frame();
            if (timed) {
              frames_.record(static_cast<std::uint64_t>(now_ns() - start));
            }
          }
          bool holds = false;
          {
            Tracer::Scope s(tracer_, SpanName::kCheckTrace);
            holds = props::check_trace(sys.trace(), *spec_).all_hold();
          }
          std::uint64_t digest = 0;
          {
            Tracer::Scope s(tracer_, SpanName::kDigest);
            digest = sys.digest();
          }
          if (timed) {
            reconfigs_ +=
                sys.scram().stats().reconfigs_completed - reconfigs_before;
            if (!holds) ++failed_ops_;
          } else if (!holds) {
            throw std::runtime_error("warm-up op broke SP1-SP4");
          }
          fnv_mix(acc.chunk_digest, digest);
        },
        [](Acc& into, Acc& part) { fnv_mix(into.digest, part.chunk_digest); });
    return total.digest;
  }

  /// The library's oracle path: run_fleet_missions building a fresh system
  /// per sample (the pool-off ablation), block by block. It runs after the
  /// timed phase, so peak_rss_mib never includes its systems.
  std::uint64_t oracle_digest() const {
    auto spec = make_spec();
    const support::MissionFactory factory = chain_factory(spec);
    const support::PlanFactory plans = make_plans(*spec);
    sim::FleetRunner fleet(sim::FleetOptions{kOracleThreads, 0,
                                             sim::kFleetChunk, nullptr});
    std::uint64_t h = kFnvBasis;
    for (const std::uint64_t base : block_seeds_) {
      support::FleetMissionOptions options;
      options.samples = kOpsPerBlock;
      options.frames = kMissionFrames;
      options.base_seed = base;
      options.warmup_frames = kWarmupFrames;
      options.pool_systems = false;
      fnv_mix(h, support::run_fleet_missions(factory, plans, options, fleet)
                     .digest);
    }
    return h;
  }

  const RunConfig& config_;
  Tracer& tracer_;
  std::size_t blocks_per_segment_ = 1;
  std::shared_ptr<core::ReconfigSpec> spec_;
  support::MissionFactory factory_;
  support::PlanFactory plans_;
  std::unique_ptr<support::SystemPool> pool_;
  std::unique_ptr<sim::FleetRunner> fleet_;
  LatencyHistogram frames_;
  std::vector<std::uint64_t> block_seeds_;
  std::uint64_t run_digest_ = kFnvBasis;
  std::uint64_t op_id_ = 0;
  std::uint64_t reconfigs_ = 0;
  std::uint64_t failed_ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet_wide(const RunConfig& config,
                                          Tracer& tracer) {
  return std::make_unique<FleetWide>(config, tracer);
}

}  // namespace perfbench
