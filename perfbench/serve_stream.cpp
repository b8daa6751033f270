// serve_stream: serve::SimServer over the shared-memory ring, on 2-app
// chain systems. 64 sessions run concurrently, 32 frames each, and a new
// session opens as soon as one completes: a closed loop, because the serve
// plane does not pace arrivals. Rings are in-process and polled on the
// driving thread, so the workload adds no threads and no sockets. One op is
// one session, streamed and then audited. Per-session lease and restore,
// record CRCs and ring publish/consume dominate a tiny frame, so frame-cost
// work barely moves this workload while restore or serve changes do.
#include <memory>
#include <vector>

#include "arfs/core/system.hpp"
#include "arfs/serve/client.hpp"
#include "arfs/serve/record.hpp"
#include "arfs/serve/server.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/sweep.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench.hpp"
#include "chain_mission.hpp"
#include "oracles.hpp"

namespace perfbench {
namespace {

using namespace arfs;

constexpr std::size_t kConcurrent = 64;
constexpr Cycle kSessionFrames = 32;
constexpr Cycle kWarmupFrames = 4;
constexpr std::size_t kPlanChanges = 3;
constexpr std::size_t kWarmSessions = 64;
/// Sessions completed per block: about 200 ms of work. With blocks of 128
/// and 256 sessions, ops_per_s spread two to three times wider from run to
/// run.
constexpr std::size_t kSessionsPerBlock = 512;
/// Sessions per second of --seconds: fixes the op count, never a time bound.
constexpr std::size_t kSessionsPerSecond = 2500;

support::PlanFactory make_plans(const core::ReconfigSpec& spec) {
  return chain_plans(spec, kPlanChanges, kWarmupFrames, kSessionFrames);
}

serve::ServeOptions serve_options(std::uint64_t base_seed) {
  serve::ServeOptions options;
  options.max_sessions = kConcurrent;
  options.frame_budget = kSessionFrames;
  options.warmup_frames = kWarmupFrames;
  options.base_seed = base_seed;
  // Budget plus the end record fit, so a client polled every round never
  // loses a frame: the workload measures delivery, not backpressure.
  options.ring_slot_count = 64;
  return options;
}

class ServeStream final : public Workload {
 public:
  ServeStream(const RunConfig& config, Tracer& tracer)
      : config_(config), tracer_(tracer) {
    const std::size_t total =
        kSessionsPerSecond * static_cast<std::size_t>(config.seconds);
    blocks_per_segment_ = (total + kSegments * kSessionsPerBlock - 1) /
                          (kSegments * kSessionsPerBlock);
    if (config.trace) {
      // Five spans per pump round plus one per session opened.
      tracer_.enable(kSegments * blocks_per_segment_ * kSessionsPerBlock *
                     (5 * (kSessionFrames + 2) / kConcurrent + 2));
    }
  }

  std::size_t blocks_per_segment() const override {
    return blocks_per_segment_;
  }

  void setup(std::size_t segment) override {
    const std::shared_ptr<core::ReconfigSpec> spec = make_spec();
    segment_seed_ = sim::job_seed(config_.seed, segment);
    segment_digests_.clear();
    server_ = std::make_unique<serve::SimServer>(
        chain_factory(spec), make_plans(*spec), serve_options(segment_seed_));
    // Untimed warm-up pass: ramp up to full concurrency with staggered
    // starts (one new session per pump round), then complete a first
    // generation of sessions.
    accepting_ = true;
    std::size_t done = 0;
    while (done < kWarmSessions) {
      if (clients_.size() < kConcurrent) open_one();
      done += round(false);
    }
  }

  std::uint64_t run_block(std::size_t, std::size_t) override {
    std::size_t done = 0;
    while (done < kSessionsPerBlock) done += round(true);
    return done;
  }

  void teardown() override {
    // Stop admitting, then deliver and audit every session still in
    // flight, so each segment's digest covers all the sessions it opened.
    accepting_ = false;
    while (!clients_.empty()) (void)round(false);
    pool_constructions_ += server_->pool_stats().constructions;
    server_.reset();
    for (const std::uint64_t digest : segment_digests_) {
      fnv_mix(run_digest_, digest);
    }
    // The segment's oracle runs here, untimed, which also spreads the timed
    // blocks over more of the run's wall time.
    for (const std::uint64_t digest : oracle_digests()) {
      fnv_mix(oracle_digest_, digest);
    }
  }

  LatencyHistogram& frames() override { return frames_; }

  void finish(const std::vector<Tracer::Totals>& totals,
              RunResult& result) override {
    result.failed += failed_ops_;
    if (failed_ops_ > 0 || untimed_failures_ > 0) {
      result.correct = false;
      result.problems.push_back(
          std::to_string(failed_ops_ + untimed_failures_) +
          " sessions failed the stream audit");
    }
    result.run_digest = run_digest_;
    const std::uint64_t recorded =
        recorded_oracle("serve_stream", config_.seed, config_.seconds);
    if (recorded != 0 && recorded != oracle_digest_) {
      result.correct = false;
      result.problems.push_back("oracle digest moved from the recorded one");
    }
    gate_digest(config_, recorded, [&] { return oracle_digest_; }, result);

    const auto t = [&](SpanName n) -> const Tracer::Totals& {
      return totals[static_cast<std::size_t>(n)];
    };
    const Tracer::Totals& pump = t(SpanName::kPump);
    const Tracer::Totals& poll = t(SpanName::kPoll);
    set_layer(result, "serve.open_session_us",
              per_call_us(t(SpanName::kOpenSession)));
    set_layer(result, "serve.open_session.allocs",
              per_call_allocs(t(SpanName::kOpenSession)));
    set_layer(result, "serve.pump_us_per_session_frame",
              pump.items > 0 ? static_cast<double>(pump.ns) / 1e3 /
                                   static_cast<double>(pump.items)
                             : 0.0);
    set_layer(result, "serve.pump.allocs_per_session_frame",
              pump.items > 0 ? static_cast<double>(pump.allocs) /
                                   static_cast<double>(pump.items)
                             : 0.0);
    set_layer(result, "serve.poll_us_per_record",
              poll.items > 0 ? static_cast<double>(poll.ns) / 1e3 /
                                   static_cast<double>(poll.items)
                             : 0.0);
    const Tracer::Totals& drain = t(SpanName::kDrain);
    set_layer(result, "serve.drain_us",
              traced_sessions_ > 0 ? static_cast<double>(drain.ns) / 1e3 /
                                         static_cast<double>(traced_sessions_)
                                   : 0.0);
    set_layer(result, "serve.skipped_frame_share",
              frames_produced_ > 0 ? static_cast<double>(frames_skipped_) /
                                         static_cast<double>(frames_produced_)
                                   : 0.0);
    set_layer(result, "support.pool.constructions",
              static_cast<double>(pool_constructions_));
  }

 private:
  struct Live {
    std::uint64_t id = 0;
    std::unique_ptr<serve::SessionClient> client;
  };

  static std::shared_ptr<core::ReconfigSpec> make_spec() {
    return std::make_shared<core::ReconfigSpec>(
        support::make_chain_spec({}));
  }

  void open_one() {
    Tracer::Scope s(tracer_, SpanName::kOpenSession);
    serve::SimServer::Opened opened =
        server_->open_session(serve::TransportKind::kShm);
    auto client = std::make_unique<serve::SessionClient>(
        std::move(opened.source), [this](std::uint64_t ns) {
          if (timing_) frames_.record(ns);
        });
    clients_.push_back(Live{opened.id, std::move(client)});
  }

  /// One pump round: every live session produces a frame, finished ones
  /// deliver their end record, every client polls; completed sessions are
  /// audited and, while admitting, replaced at once. Returns sessions
  /// completed this round.
  std::size_t round(bool timed) {
    timing_ = timed;
    {
      Tracer::Scope s(tracer_, SpanName::kPump);
      s.items(server_->pump());
    }
    std::size_t completed = 0;
    {
      Tracer::Scope s(tracer_, SpanName::kPoll);
      std::uint64_t records = 0;
      for (Live& live : clients_) records += live.client->poll();
      s.items(records);
    }
    for (std::size_t i = 0; i < clients_.size();) {
      if (!clients_[i].client->done()) {
        ++i;
        continue;
      }
      audit(clients_[i], timed);
      ++completed;
      clients_[i] = std::move(clients_.back());
      clients_.pop_back();
    }
    {
      // Sends pending end records and retires the sessions whose streams
      // the clients just finished, freeing their admission slots.
      Tracer::Scope s(tracer_, SpanName::kDrain);
      (void)server_->drain();
    }
    if (accepting_) {
      for (std::size_t i = 0; i < completed; ++i) open_one();
    }
    timing_ = false;
    return completed;
  }

  void audit(const Live& live, bool timed) {
    const serve::ClientReport& client = live.client->report();
    const serve::SessionReport& producer = server_->report(live.id);
    const bool ok = client.accounted() && client.digest_matches() &&
                    producer.frames_skipped == 0;
    if (producer.index >= segment_digests_.size()) {
      segment_digests_.resize(producer.index + 1);
    }
    segment_digests_[producer.index] = client.digest;
    frames_produced_ += producer.frames_produced;
    frames_skipped_ += producer.frames_skipped;
    if (timed && tracer_.active()) ++traced_sessions_;
    if (!ok) ++(timed ? failed_ops_ : untimed_failures_);
  }

  /// The library's oracle path for the current segment: the pooled
  /// in-process mission sweep folding the same frame records the server
  /// streams. Element i is session i's digest.
  std::vector<std::uint64_t> oracle_digests() const {
    const std::shared_ptr<core::ReconfigSpec> spec = make_spec();
    const support::PlanFactory plans = make_plans(*spec);
    support::SystemPool pool(chain_factory(spec), kWarmupFrames);
    return support::run_mission_sweep<std::uint64_t>(
        segment_digests_.size(), segment_seed_,
        std::function<std::uint64_t(const support::MissionJob&,
                                    support::PooledMission&)>(
            [&](const support::MissionJob& job,
                support::PooledMission& mission) {
              mission.system().set_fault_plan(plans(job.seed));
              std::uint64_t digest = serve::kDigestBasis;
              for (Cycle f = 1; f <= kSessionFrames; ++f) {
                mission.system().run_frame();
                serve::fold_record(digest,
                                   serve::make_frame_record(
                                       mission.system(), kWarmupFrames + f));
              }
              return digest;
            }),
        pool, *oracle_fleet_);
  }

  const RunConfig& config_;
  Tracer& tracer_;
  std::size_t blocks_per_segment_ = 1;
  std::unique_ptr<serve::SimServer> server_;
  std::vector<Live> clients_;
  bool accepting_ = true;
  bool timing_ = false;
  LatencyHistogram frames_;
  std::unique_ptr<sim::FleetRunner> oracle_fleet_ =
      std::make_unique<sim::FleetRunner>(sim::FleetOptions{
          kOracleThreads, 0, sim::kFleetChunk, nullptr});
  std::uint64_t segment_seed_ = 0;
  /// The current segment's sessions, by index: the digest each client
  /// folded.
  std::vector<std::uint64_t> segment_digests_;
  std::uint64_t run_digest_ = kFnvBasis;
  std::uint64_t oracle_digest_ = kFnvBasis;
  std::uint64_t failed_ops_ = 0;
  std::uint64_t untimed_failures_ = 0;
  std::uint64_t frames_produced_ = 0;
  std::uint64_t frames_skipped_ = 0;
  std::uint64_t traced_sessions_ = 0;
  std::uint64_t pool_constructions_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_stream(const RunConfig& config,
                                            Tracer& tracer) {
  return std::make_unique<ServeStream>(config, tracer);
}

}  // namespace perfbench
