// Experiment E21 — the resident simulator service under load.
//
// A SimServer keeps a pool of warm, checkpoint-seeded systems resident and
// streams per-frame records to many concurrent session clients over two
// transports: the lock-free shared-memory frame ring (fast path) and the
// length-prefixed socket stream (fallback). This experiment measures what
// residency buys and what each transport costs:
//   1. Fidelity: streamed session digests bit-identical to the in-process
//      run_mission_sweep oracle over the same factory/plans/base_seed, on
//      both transports (acceptance gate — the service may never trade
//      correctness for latency).
//   2. Load: sessions/sec and p50/p95/p99/max per-frame delivery latency,
//      shm vs socket, at 1 / 64 / 1024 concurrent sessions.
//   3. Backpressure: a fully stalled consumer must cost itself frames
//      (explicit gap records) while the simulation loop's per-frame wall
//      time stays flat — delivery loss, never producer stall.
//   4. Memory: the heap bytes of one warm image, one pooled mission, one
//      session ring and one session report, read from glibc's mallinfo2
//      (skipped elsewhere and under sanitizers, whose allocators it does
//      not see).
//
// Scale knobs (smoke runs set these small):
//   ARFS_SERVE_SESSIONS  peak concurrent sessions   (default 1024)
//   ARFS_SERVE_FRAMES    frames per session         (default 32)
//
// Emit machine-readable numbers for the perf trajectory with:
//   bench_serve --json BENCH_serve.json
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <vector>
#if defined(__GLIBC__)  // defined by the C++ headers above
#include <malloc.h>
#endif

#include "arfs/core/system.hpp"
#include "arfs/serve/client.hpp"
#include "arfs/serve/server.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/sweep.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench_main.hpp"

namespace {

using namespace arfs;

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const auto parsed = std::strtoull(value, nullptr, 10);
  return parsed > 0 ? static_cast<std::size_t>(parsed) : fallback;
}

double wall_ms(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Every mission shares the factory's one spec, as perfbench's serve
/// workload does: a spec is read-only while systems run.
support::MissionFactory chain_factory() {
  auto spec =
      std::make_shared<core::ReconfigSpec>(support::make_chain_spec({}));
  return [spec] {
    auto system = std::make_unique<core::System>(*spec);
    for (const core::AppDecl& decl : spec->apps()) {
      system->add_app(
          std::make_unique<support::SimpleApp>(decl.id, decl.name));
    }
    support::CrashMission mission;
    mission.keepalive = spec;
    mission.system = std::move(system);
    return mission;
  };
}

support::PlanFactory chain_plans(Cycle warmup, Cycle frames) {
  support::EnvPlanParams params;
  params.factors = support::make_chain_spec({}).factors().factors();
  params.changes = 3;
  params.first_frame = warmup;
  params.frames = frames;
  return support::make_env_plan_factory(std::move(params));
}

serve::ServeOptions base_options(std::size_t sessions, Cycle frames) {
  serve::ServeOptions options;
  options.max_sessions = sessions;
  options.frame_budget = frames;
  options.warmup_frames = 4;
  options.base_seed = 7;
  // Budget + end record fit: a client polling every pump round never loses
  // a frame, so load cells measure latency, not backpressure.
  std::uint32_t slots = 2;
  while (slots < frames + 2) slots <<= 1;
  options.ring_slot_count = slots;
  return options;
}

serve::SimServer make_server(const serve::ServeOptions& options) {
  return serve::SimServer(
      chain_factory(),
      chain_plans(options.warmup_frames, options.frame_budget), options);
}

/// The in-process reference: pooled mission sweep folding the same frame
/// records the server streams. Element i is session i's required digest.
std::vector<std::uint64_t> oracle_digests(std::size_t sessions,
                                          const serve::ServeOptions& options) {
  const support::PlanFactory plans =
      chain_plans(options.warmup_frames, options.frame_budget);
  support::SystemPool pool(chain_factory(), options.warmup_frames);
  sim::FleetRunner fleet;
  return support::run_mission_sweep<std::uint64_t>(
      sessions, options.base_seed,
      std::function<std::uint64_t(const support::MissionJob&,
                                  support::PooledMission&)>(
          [&](const support::MissionJob& job,
              support::PooledMission& mission) {
            mission.system().set_fault_plan(plans(job.seed));
            std::uint64_t digest = serve::kDigestBasis;
            for (Cycle f = 1; f <= options.frame_budget; ++f) {
              mission.system().run_frame();
              serve::fold_record(
                  digest, serve::make_frame_record(
                              mission.system(), options.warmup_frames + f));
            }
            return digest;
          }),
      pool, fleet);
}

struct LoadCell {
  double wall_ms = 0;
  double sessions_per_s = 0;
  double frames_per_s = 0;
  bench::Log2Histogram latency;  ///< Per-frame delivery latency, ns.
  std::uint64_t skipped = 0;
  bool all_verified = true;
  std::vector<std::uint64_t> digests;
};

/// Runs `sessions` concurrent sessions of `kind` to completion, production
/// interleaved with client polls, and audits every stream.
LoadCell run_load(serve::TransportKind kind, std::size_t sessions,
                  Cycle frames) {
  const serve::ServeOptions options = base_options(sessions, frames);
  serve::SimServer server = make_server(options);
  LoadCell cell;

  std::vector<std::unique_ptr<serve::SessionClient>> clients;
  std::vector<std::uint64_t> ids;
  clients.reserve(sessions);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < sessions; ++i) {
    serve::SimServer::Opened opened = server.open_session(kind);
    ids.push_back(opened.id);
    clients.push_back(std::make_unique<serve::SessionClient>(
        std::move(opened.source),
        [&cell](std::uint64_t ns) { cell.latency.record(ns); }));
  }
  while (server.pump() > 0) {
    for (auto& client : clients) (void)client->poll();
  }
  for (int round = 0; round < 1'000'000; ++round) {
    bool all_done = true;
    for (auto& client : clients) {
      if (!client->done()) {
        (void)client->poll();
        all_done = all_done && client->done();
      }
    }
    if (server.drain() && all_done) break;
  }
  cell.wall_ms = wall_ms(start);
  cell.sessions_per_s =
      static_cast<double>(sessions) / (cell.wall_ms / 1000.0);
  cell.frames_per_s = static_cast<double>(sessions) *
                      static_cast<double>(frames) / (cell.wall_ms / 1000.0);
  for (std::size_t i = 0; i < sessions; ++i) {
    const serve::ClientReport& report = clients[i]->report();
    cell.skipped += server.report(ids[i]).frames_skipped;
    cell.all_verified = cell.all_verified && report.accounted() &&
                        (report.gap_frames > 0 || report.digest_matches());
    cell.digests.push_back(report.digest);
  }
  return cell;
}

/// Fidelity gate: both transports' streamed digests against the oracle.
bool report_oracle(Cycle frames) {
  constexpr std::size_t kSessions = 8;
  const std::vector<std::uint64_t> oracle =
      oracle_digests(kSessions, base_options(kSessions, frames));
  bool ok = true;
  std::cout << "\nStreamed-digest fidelity vs the in-process sweep oracle\n"
            << "(" << kSessions << " sessions x " << frames
            << " frames, lossless rings/streams)\n";
  for (const serve::TransportKind kind :
       {serve::TransportKind::kShm, serve::TransportKind::kStream}) {
    const LoadCell cell = run_load(kind, kSessions, frames);
    std::size_t matches = 0;
    for (std::size_t i = 0; i < kSessions; ++i) {
      if (i < cell.digests.size() && cell.digests[i] == oracle[i]) ++matches;
    }
    const bool kind_ok = cell.all_verified && matches == kSessions;
    ok = ok && kind_ok;
    std::cout << "  " << std::left << std::setw(8) << to_string(kind)
              << matches << "/" << kSessions << " digests bit-identical"
              << (kind_ok ? "" : "  MISMATCH") << "\n";
  }
  std::cout << "streamed digests match the sweep oracle: "
            << (ok ? "yes" : "NO") << "\n";
  bench::trajectory().record("serve/oracle_match", ok ? 1 : 0, "bool");
  return ok;
}

/// The load matrix: sessions/sec and latency percentiles per transport.
void report_load(std::size_t max_sessions, Cycle frames) {
  std::cout << "\nSession throughput and per-frame delivery latency\n"
            << "(" << frames << " frames/session, production interleaved "
            << "with client polls)\n";
  std::cout << std::left << std::setw(10) << "transport" << std::setw(10)
            << "sessions" << std::setw(12) << "wall-ms" << std::setw(14)
            << "sessions/s" << std::setw(12) << "frames/s" << std::setw(26)
            << "latency p50/p95/p99 (us)" << std::setw(10) << "max-us"
            << "\n";

  std::vector<std::size_t> ladder;
  for (const std::size_t n : {std::size_t{1}, std::size_t{64},
                              std::size_t{1024}}) {
    if (n <= max_sessions) ladder.push_back(n);
  }
  if (ladder.empty() || ladder.back() != max_sessions) {
    ladder.push_back(max_sessions);
  }

  // Transport cost is isolated at a single session: with many concurrent
  // sessions on one pump thread, delivery latency is dominated by the
  // interleaved pump round itself, identically on both transports.
  double shm_p99_single = 0;
  double socket_p99_single = 0;
  for (const serve::TransportKind kind :
       {serve::TransportKind::kShm, serve::TransportKind::kStream}) {
    for (const std::size_t n : ladder) {
      const LoadCell cell = run_load(kind, n, frames);
      const double p50 = static_cast<double>(cell.latency.p50()) / 1000.0;
      const double p95 = static_cast<double>(cell.latency.p95()) / 1000.0;
      const double p99 = static_cast<double>(cell.latency.p99()) / 1000.0;
      std::ostringstream lat;
      lat << std::fixed << std::setprecision(1) << p50 << "/" << p95 << "/"
          << p99;
      std::cout << std::left << std::setw(10) << to_string(kind)
                << std::setw(10) << n << std::fixed << std::setprecision(1)
                << std::setw(12) << cell.wall_ms << std::setprecision(0)
                << std::setw(14) << cell.sessions_per_s << std::setw(12)
                << cell.frames_per_s << std::setw(26) << lat.str()
                << std::setprecision(1) << std::setw(10)
                << static_cast<double>(cell.latency.max()) / 1000.0
                << (cell.all_verified ? "" : "  UNVERIFIED") << "\n";

      const std::string key = std::string("serve/") + to_string(kind) +
                              "/N" + std::to_string(n);
      bench::trajectory().record(key + "/sessions_per_s",
                                 cell.sessions_per_s, "1/s");
      bench::trajectory().record(key + "/frames_per_s", cell.frames_per_s,
                                 "1/s");
      bench::trajectory().record(key + "/latency_p50",
                                 static_cast<double>(cell.latency.p50()),
                                 "ns");
      bench::trajectory().record(key + "/latency_p99",
                                 static_cast<double>(cell.latency.p99()),
                                 "ns");
      if (n == ladder.front()) {
        if (kind == serve::TransportKind::kShm) {
          shm_p99_single = static_cast<double>(cell.latency.p99());
        } else {
          socket_p99_single = static_cast<double>(cell.latency.p99());
        }
      }
    }
  }
  if (shm_p99_single > 0) {
    const double ratio = socket_p99_single / shm_p99_single;
    std::cout << "transport p99, single session: socket/shm = " << std::fixed
              << std::setprecision(1) << ratio << "x\n";
    bench::trajectory().record("serve/p99_socket_vs_shm", ratio, "x");
  }
}

/// Backpressure: a consumer that never polls while the server produces.
/// The producer's per-frame wall time must stay flat (vs a live consumer)
/// and the loss must surface as explicit gap records.
void report_backpressure(Cycle frames) {
  serve::ServeOptions options = base_options(1, frames);
  options.ring_slot_count = 4;  // tiny window: almost everything skips

  // Stalled: no client polls until production is over.
  serve::SimServer stalled = make_server(options);
  serve::SimServer::Opened opened =
      stalled.open_session(serve::TransportKind::kShm);
  auto start = std::chrono::steady_clock::now();
  stalled.pump_all();
  const double stalled_ms = wall_ms(start);
  const serve::SessionReport mid = stalled.report(opened.id);
  serve::SessionClient late(std::move(opened.source));
  for (int round = 0; round < 1'000'000; ++round) {
    (void)late.poll();
    if (stalled.drain() && late.done()) break;
  }

  // Live: the client polls every round (same tiny ring).
  serve::SimServer live_server = make_server(options);
  serve::SimServer::Opened live_opened =
      live_server.open_session(serve::TransportKind::kShm);
  serve::SessionClient live(std::move(live_opened.source));
  start = std::chrono::steady_clock::now();
  while (live_server.pump() > 0) (void)live.poll();
  const double live_ms = wall_ms(start);
  for (int round = 0; round < 1'000'000; ++round) {
    (void)live.poll();
    if (live_server.drain() && live.done()) break;
  }

  const double ratio = live_ms > 0 ? stalled_ms / live_ms : 0;
  const serve::ClientReport& report = late.report();
  std::cout << "\nBackpressure: stalled consumer vs live consumer ("
            << frames << " frames, 4-slot ring)\n"
            << "  produced " << mid.frames_produced << " frames, skipped "
            << mid.frames_skipped << " (" << report.gaps
            << " gap records), stream accounted: "
            << (report.accounted() ? "yes" : "NO") << "\n"
            << "  producer wall: stalled " << std::fixed
            << std::setprecision(2) << stalled_ms << " ms vs live "
            << live_ms << " ms (" << std::setprecision(2) << ratio
            << "x)\n"
            << "backpressure holds: gaps explicit, run_frame unstalled: "
            << (report.accounted() && report.gaps > 0 &&
                        mid.frames_produced == frames
                    ? "yes"
                    : "NO")
            << "\n";
  bench::trajectory().record("serve/backpressure/gap_records",
                             static_cast<double>(report.gaps), "records");
  bench::trajectory().record("serve/backpressure/stalled_vs_live_wall",
                             ratio, "x");
}

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
/// Heap bytes in use, as glibc's allocator counts them.
double heap_in_use() { return static_cast<double>(mallinfo2().uordblks); }

/// What each part of a serving server holds on the heap, in the serve
/// shape of the load matrix: a system pool keeps one warm image and one
/// system per peak-concurrent session, the server one ring per slot and one
/// report per session served. Each part is built kCopies times and the
/// growth averaged, so chunks the allocator recycles from its caches (which
/// mallinfo2 counts as in use) do not hide a part's size.
void report_memory(Cycle frames) {
  constexpr std::size_t kCopies = 32;
  const serve::ServeOptions options = base_options(64, frames);
  const support::MissionFactory factory = chain_factory();
  support::PooledMission first(factory, options.warmup_frames);
  // Mean heap growth of one of kCopies parts `make` builds, all kept alive
  // until they are counted.
  const auto bytes_per = [](const auto& make) {
    std::vector<decltype(make())> parts;
    parts.reserve(kCopies);
    const double before = heap_in_use();
    for (std::size_t i = 0; i < kCopies; ++i) parts.push_back(make());
    return (heap_in_use() - before) / static_cast<double>(kCopies);
  };
  const double image_bytes = bytes_per([&first] {
    return std::make_shared<const core::SystemCheckpoint>(
        first.system().checkpoint());
  });
  const double mission_bytes = bytes_per([&] {
    return std::make_unique<support::PooledMission>(factory, first.warm());
  });
  serve::RingOptions ring_options;
  ring_options.slot_count = options.ring_slot_count;
  ring_options.slot_bytes = static_cast<std::uint32_t>(
      serve::FrameRing::kSlotHeaderBytes + serve::kRecordBytes);
  const double ring_bytes = bytes_per(
      [&ring_options] { return serve::FrameRing::create(ring_options); });

  // Reports: a warm one-slot server runs 256 one-frame sessions, then 256
  // more; the second batch grows the heap by its reports alone (the slot,
  // its ring and its system are reused, and each plan replaces the last).
  serve::ServeOptions one = options;
  one.max_sessions = 1;
  one.frame_budget = 1;
  serve::SimServer server = make_server(one);
  constexpr std::size_t kBatch = 256;
  const auto run_batch = [&server] {
    for (std::size_t i = 0; i < kBatch; ++i) {
      serve::SessionClient client(
          server.open_session(serve::TransportKind::kShm).source);
      server.pump_all();
      while (!(server.drain() && client.done())) (void)client.poll();
    }
  };
  run_batch();
  const double before = heap_in_use();
  run_batch();
  const double report_bytes =
      (heap_in_use() - before) / static_cast<double>(kBatch);

  std::cout << "\nHeap per serve component (mallinfo2 in-use bytes, mean of "
            << kCopies << "; chain missions, " << options.warmup_frames
            << "-frame warm-up, " << ring_options.slot_count
            << "-slot rings)\n"
            << std::fixed << std::setprecision(0)
            << "  warm image (one per pool)        " << image_bytes << " B\n"
            << "  pooled mission (one per session) " << mission_bytes
            << " B\n"
            << "  session ring (" << ring_options.slot_bytes
            << "-byte slots)    " << ring_bytes << " B\n"
            << std::setprecision(1)
            << "  session report (one per session) " << report_bytes
            << " B\n";
  bench::trajectory().record("serve/heap/warm_image_bytes", image_bytes, "B");
  bench::trajectory().record("serve/heap/pooled_mission_bytes", mission_bytes,
                             "B");
  bench::trajectory().record("serve/heap/ring_bytes", ring_bytes, "B");
  bench::trajectory().record("serve/heap/report_bytes", report_bytes, "B");
}
#else
void report_memory(Cycle) {}
#endif

void report() {
  bench::banner("E21: resident simulator service",
                "shared-memory frame streaming vs socket fallback under "
                "session load");
  const std::size_t max_sessions = env_size("ARFS_SERVE_SESSIONS", 1024);
  const Cycle frames =
      static_cast<Cycle>(env_size("ARFS_SERVE_FRAMES", 32));
  report_oracle(frames);
  report_load(max_sessions, frames);
  // Fixed scale: long enough that per-frame cost dominates the constant
  // overheads (first-touch page faults, session setup) in the wall ratio.
  report_backpressure(1024);
  report_memory(frames);
  std::cout << "\n";
}

// --- google-benchmark timings ---

void BM_ServeSessionBatch(benchmark::State& state) {
  const auto kind = state.range(0) == 0 ? serve::TransportKind::kShm
                                        : serve::TransportKind::kStream;
  constexpr std::size_t kSessions = 16;
  constexpr Cycle kFrames = 8;
  for (auto _ : state) {
    const LoadCell cell = run_load(kind, kSessions, kFrames);
    benchmark::DoNotOptimize(cell.skipped);
  }
  state.SetItemsProcessed(state.iterations() * kSessions * kFrames);
}
BENCHMARK(BM_ServeSessionBatch)->ArgName("transport")->Arg(0)->Arg(1);

}  // namespace

ARFS_BENCH_MAIN(report)
