// The resident serving layer (arfs::serve), end to end.
//
// Contracts under test:
//  * FrameRecord wire round-trips; fold_record ignores transport metadata
//    (seq/stamps) — the digest is a function of mission telemetry alone;
//  * FrameRing SPSC protocol: publish/consume order, full-ring rejection
//    (never blocking), wrap-around, close-and-drain, cross-mapping
//    file attach, corruption surfacing as arfs::Error, consumed-span
//    reclaim bounding the resident window;
//  * StreamTransport/StreamSource: length-prefixed framing round-trips,
//    the pending-buffer cap rejects instead of blocking, EOF closes;
//  * FrameRing::reset: a rewound ring behaves like a fresh one;
//  * SimServer: admission control at max_sessions, streamed sessions over
//    both transports digest bit-identical to the run_mission_sweep pooled
//    oracle, also through reused slots and through pooled systems built by
//    restoring the pool's one image (against fresh builds), a ring slot
//    holds exactly one record, a client that keeps a retired
//    session's ring never sees the next session's records, report
//    references stay valid, and — the backpressure contract — a fully
//    stalled consumer costs itself frames (explicit gap records,
//    contiguous seq and frame accounting) but never stalls
//    System::run_frame;
//  * concurrent producer/consumer on one ring (the TSan target for the
//    `serve` label);
//  * bench::Log2Histogram percentile extraction.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/serve/client.hpp"
#include "arfs/serve/frame_ring.hpp"
#include "arfs/serve/record.hpp"
#include "arfs/serve/server.hpp"
#include "arfs/serve/transport.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/sweep.hpp"
#include "arfs/support/synthetic.hpp"
#include "bench_main.hpp"

namespace arfs::serve {
namespace {

std::string temp_path(const std::string& tag) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/arfs_serve_" + tag +
         "_" + std::to_string(::getpid());
}

FrameRecord frame_record(std::uint64_t frame, std::uint64_t payload) {
  FrameRecord r;
  r.kind = RecordKind::kFrame;
  r.frame = frame;
  r.data0 = payload;
  r.data1 = payload ^ 0xABCDULL;
  r.data2 = payload + 7;
  return r;
}

// --- records ---

TEST(Record, WireRoundTripAllKinds) {
  for (const RecordKind kind :
       {RecordKind::kFrame, RecordKind::kGap, RecordKind::kEnd}) {
    FrameRecord in;
    in.kind = kind;
    in.seq = 0x1122334455667788ULL;
    in.frame = 42;
    in.data0 = 0xDEADBEEFCAFEF00DULL;
    in.data1 = 7;
    in.data2 = ~0ULL;
    std::vector<std::uint8_t> bytes;
    encode_record(bytes, in);
    ASSERT_EQ(bytes.size(), kRecordBytes);
    FrameRecord out;
    ASSERT_TRUE(decode_record(bytes.data(), bytes.size(), out));
    EXPECT_EQ(out.kind, in.kind);
    EXPECT_EQ(out.seq, in.seq);
    EXPECT_EQ(out.frame, in.frame);
    EXPECT_EQ(out.data0, in.data0);
    EXPECT_EQ(out.data1, in.data1);
    EXPECT_EQ(out.data2, in.data2);
  }
}

TEST(Record, DecodeRejectsShortOrUnknownKind) {
  std::vector<std::uint8_t> bytes;
  encode_record(bytes, FrameRecord{});
  FrameRecord out;
  EXPECT_FALSE(decode_record(bytes.data(), kRecordBytes - 1, out));
  bytes[0] = 99;  // no such kind
  EXPECT_FALSE(decode_record(bytes.data(), bytes.size(), out));
}

TEST(Record, FoldIgnoresTransportMetadata) {
  FrameRecord a = frame_record(5, 1234);
  FrameRecord b = a;
  b.seq = 999;  // transport-only field
  std::uint64_t da = kDigestBasis;
  std::uint64_t db = kDigestBasis;
  fold_record(da, a);
  fold_record(db, b);
  EXPECT_EQ(da, db);

  b.data0 ^= 1;  // telemetry must move the digest
  db = kDigestBasis;
  fold_record(db, b);
  EXPECT_NE(da, db);
}

// --- FrameRing ---

/// A ring with `options`: fresh, or (`rewound`) one that carried a stream
/// of its own first — records published and consumed past a wrap, a full
/// ring with a rejected publish, unconsumed records, close() — and was then
/// rewound by reset(). Every FrameRing check that takes both must hold for
/// both.
std::unique_ptr<FrameRing> make_ring(const RingOptions& options,
                                     bool rewound) {
  auto ring = FrameRing::create(options);
  if (!rewound) return ring;
  FrameRing::Delivered got;
  for (std::uint64_t i = 0; i < ring->slot_count() + 3; ++i) {
    EXPECT_TRUE(ring->try_publish(frame_record(900 + i, 900 + i), 9));
    EXPECT_EQ(ring->try_consume(got), FrameRing::Consume::kRecord);
  }
  while (ring->try_publish(frame_record(999, 999), 9)) {
  }
  ring->close();
  ring->reset();
  return ring;
}

TEST(FrameRing, PublishConsumeInOrder) {
  RingOptions options;
  options.slot_count = 8;
  for (const bool rewound : {false, true}) {
    auto ring = make_ring(options, rewound);
    EXPECT_EQ(ring->published(), 0u) << "rewound " << rewound;
    EXPECT_EQ(ring->consumed(), 0u) << "rewound " << rewound;
    EXPECT_FALSE(ring->closed()) << "rewound " << rewound;
    EXPECT_EQ(ring->free_slots(), ring->slot_count()) << "rewound " << rewound;
    for (std::uint64_t i = 0; i < 5; ++i) {
      ASSERT_TRUE(ring->try_publish(frame_record(i + 1, i), 1000 + i));
    }
    FrameRing::Delivered got;
    for (std::uint64_t i = 0; i < 5; ++i) {
      ASSERT_EQ(ring->try_consume(got), FrameRing::Consume::kRecord);
      EXPECT_EQ(got.record.seq, i);  // assigned at publish, contiguous
      EXPECT_EQ(got.record.frame, i + 1);
      EXPECT_EQ(got.record.data0, i);
      EXPECT_EQ(got.stamp_ns, 1000 + i);
    }
    EXPECT_EQ(ring->try_consume(got), FrameRing::Consume::kEmpty);
    EXPECT_EQ(ring->stats().published, 5u) << "rewound " << rewound;
    EXPECT_EQ(ring->stats().consumed, 5u) << "rewound " << rewound;
    EXPECT_EQ(ring->stats().publish_fails, 0u) << "rewound " << rewound;
  }
}

TEST(FrameRing, FullRingRejectsWithoutBlocking) {
  RingOptions options;
  options.slot_count = 4;
  for (const bool rewound : {false, true}) {
    auto ring = make_ring(options, rewound);
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(ring->try_publish(frame_record(i + 1, i), 0));
    }
    EXPECT_FALSE(ring->try_publish(frame_record(5, 5), 0));
    EXPECT_EQ(ring->stats().publish_fails, 1u) << "rewound " << rewound;
    EXPECT_EQ(ring->free_slots(), 0u);

    FrameRing::Delivered got;
    ASSERT_EQ(ring->try_consume(got), FrameRing::Consume::kRecord);
    EXPECT_TRUE(ring->try_publish(frame_record(5, 5), 0));
  }
}

TEST(FrameRing, WrapKeepsSequenceContiguous) {
  RingOptions options;
  options.slot_count = 4;
  for (const bool rewound : {false, true}) {
    auto ring = make_ring(options, rewound);
    FrameRing::Delivered got;
    std::uint64_t next = 0;
    for (int round = 0; round < 10; ++round) {
      ASSERT_TRUE(ring->try_publish(frame_record(round + 1, round), 0));
      ASSERT_TRUE(ring->try_publish(frame_record(round + 1, round), 0));
      for (int k = 0; k < 2; ++k) {
        ASSERT_EQ(ring->try_consume(got), FrameRing::Consume::kRecord);
        EXPECT_EQ(got.record.seq, next++);
        EXPECT_EQ(got.record.data0, static_cast<std::uint64_t>(round));
      }
    }
    EXPECT_EQ(ring->published(), 20u);
    EXPECT_EQ(ring->consumed(), 20u);
  }
}

TEST(FrameRing, CloseDrainsThenReportsClosed) {
  for (const bool rewound : {false, true}) {
    auto ring = make_ring(RingOptions{}, rewound);
    FrameRing::Delivered got;
    EXPECT_EQ(ring->try_consume(got), FrameRing::Consume::kEmpty);
    ASSERT_TRUE(ring->try_publish(frame_record(1, 0), 0));
    ring->close();
    ASSERT_EQ(ring->try_consume(got), FrameRing::Consume::kRecord);
    EXPECT_EQ(got.record.frame, 1u);
    EXPECT_EQ(ring->try_consume(got), FrameRing::Consume::kClosed);
  }
}

TEST(FrameRing, FileBackedAttachConsumesAcrossMappings) {
  const std::string path = temp_path("attach") + ".ring";
  RingOptions options;
  options.path = path;
  options.slot_count = 8;
  auto producer = FrameRing::create(options);
  EXPECT_TRUE(producer->file_backed());
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(producer->try_publish(frame_record(i + 1, 0xA0 + i), 17));
  }
  producer->close();

  // A second, independent mapping of the same file sees the same protocol.
  auto consumer = FrameRing::attach(path);
  EXPECT_EQ(consumer->slot_count(), producer->slot_count());
  FrameRing::Delivered got;
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_EQ(consumer->try_consume(got), FrameRing::Consume::kRecord);
    EXPECT_EQ(got.record.data0, 0xA0 + i);
    EXPECT_EQ(got.stamp_ns, 17u);
  }
  EXPECT_EQ(consumer->try_consume(got), FrameRing::Consume::kClosed);
  // The producer's mapping observes the attached consumer's cursor.
  EXPECT_EQ(producer->consumed(), 3u);
  ::unlink(path.c_str());
}

TEST(FrameRing, AttachRejectsMissingShortAndGarbageFiles) {
  EXPECT_THROW(FrameRing::attach(temp_path("nonexistent")), Error);

  const std::string short_path = temp_path("short");
  std::ofstream(short_path) << "hello";
  EXPECT_THROW(FrameRing::attach(short_path), Error);
  ::unlink(short_path.c_str());

  const std::string junk_path = temp_path("junk");
  std::ofstream(junk_path) << std::string(4096, 'x');
  EXPECT_THROW(FrameRing::attach(junk_path), Error);
  ::unlink(junk_path.c_str());
}

TEST(FrameRing, CorruptSlotSurfacesCleanError) {
  const std::string path = temp_path("corrupt") + ".ring";
  RingOptions options;
  options.path = path;
  auto producer = FrameRing::create(options);
  ASSERT_TRUE(producer->try_publish(frame_record(1, 42), 0));

  // Flip a payload byte through the shared file; the consumer's CRC check
  // must catch it and throw, never deliver garbage.
  std::fstream file(path,
                    std::ios::in | std::ios::out | std::ios::binary);
  file.seekp(static_cast<std::streamoff>(FrameRing::kSlotsOffset +
                                         FrameRing::kSlotHeaderBytes + 24));
  file.put('\xFF');
  file.close();

  auto consumer = FrameRing::attach(path);
  FrameRing::Delivered got;
  EXPECT_THROW((void)consumer->try_consume(got), Error);
  ::unlink(path.c_str());
}

TEST(FrameRing, ReclaimDropsConsumedSpans) {
  const std::string path = temp_path("reclaim") + ".ring";
  RingOptions options;
  options.path = path;
  options.slot_count = 64;
  options.slot_bytes = 128;
  options.reclaim_watermark_bytes = 4096;  // one page per reclaim batch
  auto ring = FrameRing::create(options);

  FrameRing::Delivered got;
  for (std::uint64_t i = 0; i < 256; ++i) {
    ASSERT_TRUE(ring->try_publish(frame_record(i + 1, i), 0));
    ASSERT_EQ(ring->try_consume(got), FrameRing::Consume::kRecord);
    EXPECT_EQ(got.record.data0, i);  // refaulted pages re-read correctly
  }
  EXPECT_GT(ring->stats().reclaims, 0u);
  EXPECT_GT(ring->stats().reclaimed_bytes, 0u);
  ::unlink(path.c_str());
}

TEST(FrameRing, ConcurrentProducerConsumer) {
  // The TSan target: one producer and one consumer thread race on the
  // cursor words; every record must arrive intact and in order.
  RingOptions options;
  options.slot_count = 16;
  auto ring = FrameRing::create(options);
  constexpr std::uint64_t kRecords = 20'000;

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kRecords;) {
      if (ring->try_publish(frame_record(i + 1, i), i)) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
    ring->close();
  });

  std::uint64_t seen = 0;
  bool ordered = true;
  FrameRing::Delivered got;
  for (;;) {
    const FrameRing::Consume result = ring->try_consume(got);
    if (result == FrameRing::Consume::kClosed) break;
    if (result == FrameRing::Consume::kEmpty) {
      std::this_thread::yield();
      continue;
    }
    ordered = ordered && got.record.seq == seen && got.record.data0 == seen;
    ++seen;
  }
  producer.join();
  EXPECT_EQ(seen, kRecords);
  EXPECT_TRUE(ordered);
}

// --- stream transport ---

TEST(StreamTransport, LengthPrefixedRoundTrip) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  StreamTransport transport(fds[0]);
  StreamSource source(fds[1]);

  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_TRUE(transport.try_send(frame_record(i + 1, i), 5000 + i));
  }
  transport.close();

  FrameSource::Item item;
  for (std::uint64_t i = 0; i < 20; ++i) {
    ASSERT_EQ(source.poll(item), FrameSource::Poll::kRecord);
    EXPECT_EQ(item.record.frame, i + 1);
    EXPECT_EQ(item.record.data0, i);
    EXPECT_EQ(item.stamp_ns, 5000 + i);
  }
  EXPECT_EQ(source.poll(item), FrameSource::Poll::kClosed);
}

TEST(StreamTransport, PendingCapRejectsInsteadOfBlocking) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // Tiny pending buffer; the un-drained peer's socket buffer fills first,
  // then the cap must reject sends rather than stall.
  StreamTransport transport(fds[0], /*pending_cap_bytes=*/2 * 1024);
  StreamSource source(fds[1]);

  std::uint64_t accepted = 0;
  std::uint64_t frame = 0;
  bool saturated = false;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    ++frame;
    if (transport.try_send(frame_record(frame, frame), 0)) {
      ++accepted;
    } else {
      saturated = true;
      break;
    }
  }
  ASSERT_TRUE(saturated);  // finite kernel buffer + cap ⇒ must reject

  // Draining the peer reopens capacity.
  FrameSource::Item item;
  std::uint64_t drained = 0;
  while (source.poll(item) == FrameSource::Poll::kRecord) {
    transport.pump();
    ++drained;
  }
  EXPECT_GT(drained, 0u);
  EXPECT_LE(drained, accepted);
  ++frame;
  EXPECT_TRUE(transport.try_send(frame_record(frame, frame), 0));
}

// --- server + client ---

support::MissionFactory chain_mission_factory() {
  return [] {
    auto spec = std::make_shared<core::ReconfigSpec>(
        support::make_chain_spec({}));
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

support::PlanFactory chain_plan_factory(Cycle first_frame, Cycle frames) {
  support::EnvPlanParams params;
  params.factors = support::make_chain_spec({}).factors().factors();
  params.changes = 3;
  params.first_frame = first_frame;
  params.frames = frames;
  return support::make_env_plan_factory(std::move(params));
}

/// The in-process oracle: the pooled run_mission_sweep over the same
/// factory/plans/base_seed, folding the same frame records the server
/// streams. Element i is the digest session i must reproduce.
std::vector<std::uint64_t> oracle_digests(std::size_t sessions,
                                          const ServeOptions& options) {
  const support::MissionFactory factory = chain_mission_factory();
  const support::PlanFactory plans =
      chain_plan_factory(options.warmup_frames, options.frame_budget);
  support::SystemPool pool(factory, options.warmup_frames);
  sim::FleetRunner fleet;
  return support::run_mission_sweep<std::uint64_t>(
      sessions, options.base_seed,
      std::function<std::uint64_t(const support::MissionJob&,
                                  support::PooledMission&)>(
          [&](const support::MissionJob& job,
              support::PooledMission& mission) {
            mission.system().set_fault_plan(plans(job.seed));
            std::uint64_t digest = kDigestBasis;
            for (Cycle f = 1; f <= options.frame_budget; ++f) {
              mission.system().run_frame();
              fold_record(digest,
                          make_frame_record(mission.system(),
                                            options.warmup_frames + f));
            }
            return digest;
          }),
      pool, fleet);
}

SimServer make_server(const ServeOptions& options) {
  return SimServer(
      chain_mission_factory(),
      chain_plan_factory(options.warmup_frames, options.frame_budget),
      options);
}

/// Runs `sessions` sessions of `kind` to completion, single-threaded:
/// production first (never client-gated), then drain interleaved with
/// client polls.
std::vector<ClientReport> run_sessions(SimServer& server, TransportKind kind,
                                       std::size_t sessions) {
  std::vector<std::unique_ptr<SessionClient>> clients;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    SimServer::Opened opened = server.open_session(kind);
    ids.push_back(opened.id);
    clients.push_back(
        std::make_unique<SessionClient>(std::move(opened.source)));
  }
  server.pump_all();
  bool flushed = false;
  for (int round = 0; round < 100'000; ++round) {
    bool all_done = true;
    for (auto& client : clients) {
      if (!client->done()) {
        (void)client->poll();
        all_done = all_done && client->done();
      }
    }
    flushed = server.drain();
    if (flushed && all_done) break;
  }
  EXPECT_TRUE(flushed);
  std::vector<ClientReport> reports;
  for (std::size_t i = 0; i < sessions; ++i) {
    EXPECT_TRUE(server.report(ids[i]).completed) << "session " << i;
    reports.push_back(clients[i]->report());
  }
  return reports;
}

ServeOptions small_serve_options() {
  ServeOptions options;
  options.frame_budget = 12;
  options.warmup_frames = 4;
  options.base_seed = 77;
  options.ring_slot_count = 32;  // > budget + end: lossless without polls
  return options;
}

TEST(SimServer, ShmSessionsMatchTheSweepOracle) {
  const ServeOptions options = small_serve_options();
  constexpr std::size_t kSessions = 4;
  const std::vector<std::uint64_t> oracle =
      oracle_digests(kSessions, options);

  SimServer server = make_server(options);
  const std::vector<ClientReport> reports =
      run_sessions(server, TransportKind::kShm, kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(reports[i].accounted()) << "session " << i;
    EXPECT_TRUE(reports[i].digest_matches()) << "session " << i;
    EXPECT_EQ(reports[i].frames, options.frame_budget);
    EXPECT_EQ(reports[i].gap_frames, 0u);
    EXPECT_EQ(reports[i].digest, oracle[i]) << "session " << i;
  }
  // Sessions ran through pooled systems, not one construction each.
  EXPECT_LE(server.pool_stats().constructions, kSessions);
}

TEST(SimServer, StreamSessionsMatchTheSweepOracle) {
  const ServeOptions options = small_serve_options();
  constexpr std::size_t kSessions = 4;
  const std::vector<std::uint64_t> oracle =
      oracle_digests(kSessions, options);

  SimServer server = make_server(options);
  const std::vector<ClientReport> reports =
      run_sessions(server, TransportKind::kStream, kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(reports[i].accounted()) << "session " << i;
    EXPECT_TRUE(reports[i].digest_matches()) << "session " << i;
    EXPECT_EQ(reports[i].digest, oracle[i]) << "session " << i;
  }
}

TEST(SimServer, ShmAndStreamDigestsAgree) {
  const ServeOptions options = small_serve_options();
  SimServer shm_server = make_server(options);
  SimServer stream_server = make_server(options);
  const std::vector<ClientReport> shm =
      run_sessions(shm_server, TransportKind::kShm, 2);
  const std::vector<ClientReport> stream =
      run_sessions(stream_server, TransportKind::kStream, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(shm[i].digest, stream[i].digest);  // transport never digests
  }
}

TEST(SimServer, SlotReusingSessionsMatchTheSweepOracle) {
  // Three generations of sessions through the same three slots, a new
  // session opening as soon as one completes. The middle generation mixes
  // in stream sessions, so a slot goes heap ring -> stream -> heap ring;
  // each heap-ring session after the first generation runs on its slot's
  // rewound ring.
  ServeOptions options = small_serve_options();
  options.max_sessions = 3;
  constexpr std::size_t kGenerations = 3;
  constexpr std::size_t kSessions = kGenerations * 3;
  const std::vector<std::uint64_t> oracle =
      oracle_digests(kSessions, options);

  SimServer server = make_server(options);
  struct Live {
    std::uint64_t id = 0;
    std::unique_ptr<SessionClient> client;
  };
  std::vector<Live> live;
  std::size_t opened = 0;
  std::size_t checked = 0;
  const auto open = [&] {
    const bool stream = opened >= 3 && opened < 6 && opened % 2 == 0;
    SimServer::Opened session = server.open_session(
        stream ? TransportKind::kStream : TransportKind::kShm);
    live.push_back(
        Live{session.id,
             std::make_unique<SessionClient>(std::move(session.source))});
    ++opened;
  };
  while (opened < 3) open();
  for (int round = 0; round < 100'000 && !live.empty(); ++round) {
    (void)server.pump();
    std::size_t completed = 0;
    for (std::size_t i = 0; i < live.size();) {
      (void)live[i].client->poll();
      if (!live[i].client->done()) {
        ++i;
        continue;
      }
      const ClientReport& report = live[i].client->report();
      const SessionReport& producer = server.report(live[i].id);
      EXPECT_TRUE(report.accounted()) << "session " << producer.index;
      EXPECT_TRUE(report.digest_matches()) << "session " << producer.index;
      EXPECT_EQ(report.digest, oracle[producer.index])
          << "session " << producer.index;
      ++checked;
      ++completed;
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    }
    (void)server.drain();
    for (std::size_t k = 0; k < completed && opened < kSessions; ++k) open();
  }
  EXPECT_EQ(checked, kSessions);
  EXPECT_EQ(server.sessions_opened(), kSessions);
  EXPECT_EQ(server.active_sessions(), 0u);
  EXPECT_LE(server.pool_stats().constructions, options.max_sessions);
}

TEST(SimServer, HeldRingIsNeverRewoundForTheNextSession) {
  // One slot. The first session's client finishes but keeps its source
  // (and so its ring) past the session's retirement; the next session in
  // that slot must stream on a fresh ring: the kept client sees none of
  // its records, and the new client gets them all.
  ServeOptions options = small_serve_options();
  options.max_sessions = 1;
  const std::vector<std::uint64_t> oracle = oracle_digests(2, options);
  SimServer server = make_server(options);

  SessionClient first(server.open_session(TransportKind::kShm).source);
  server.pump_all();
  for (int round = 0; round < 100'000; ++round) {
    (void)first.poll();
    if (server.drain() && first.done()) break;
  }
  ASSERT_TRUE(first.done());
  ASSERT_EQ(server.active_sessions(), 0u);
  const std::uint64_t first_records = first.report().records;

  SimServer::Opened second_opened = server.open_session(TransportKind::kShm);
  SessionClient second(std::move(second_opened.source));
  for (int round = 0; round < 100'000 && !second.done(); ++round) {
    (void)server.pump();
    EXPECT_EQ(first.poll(), 0u) << "round " << round;
    (void)second.poll();
    (void)server.drain();
  }
  EXPECT_EQ(first.report().records, first_records);
  EXPECT_TRUE(first.report().digest_matches());
  EXPECT_EQ(first.report().digest, oracle[0]);
  ASSERT_TRUE(second.done());
  EXPECT_TRUE(second.report().accounted());
  EXPECT_TRUE(second.report().digest_matches());
  EXPECT_EQ(second.report().digest, oracle[1]);
}

TEST(SimServer, ReportReferencesStayValidAcrossLaterOpens) {
  // Reports live in fixed chunks: a reference taken early reads the same
  // report, at the same address, after 1,000 later sessions (several
  // chunks) have been opened and retired.
  ServeOptions options = small_serve_options();
  options.frame_budget = 1;
  options.max_sessions = 1;
  SimServer server = make_server(options);
  const auto run_one = [&] {
    SimServer::Opened opened = server.open_session(TransportKind::kShm);
    SessionClient client(std::move(opened.source));
    server.pump_all();
    for (int round = 0; round < 1'000 && !(server.drain() && client.done());
         ++round) {
      (void)client.poll();
    }
    EXPECT_TRUE(client.report().digest_matches());
    return opened.id;
  };
  const std::uint64_t first_id = run_one();
  const SessionReport& first = server.report(first_id);
  const SessionReport snapshot = first;
  ASSERT_TRUE(snapshot.completed);
  for (int i = 0; i < 1'000; ++i) (void)run_one();
  EXPECT_EQ(&server.report(first_id), &first);
  EXPECT_EQ(first.id, snapshot.id);
  EXPECT_EQ(first.index, 0u);
  EXPECT_EQ(first.seed, snapshot.seed);
  EXPECT_EQ(first.frames_produced, snapshot.frames_produced);
  EXPECT_EQ(first.producer_digest, snapshot.producer_digest);
  EXPECT_TRUE(first.completed);
  for (std::uint64_t id = 1; id <= 1'001; ++id) {
    EXPECT_EQ(server.report(id).id, id);
    EXPECT_EQ(server.report(id).index, id - 1);
  }
  EXPECT_THROW((void)server.report(0), ContractViolation);
  EXPECT_THROW((void)server.report(1'002), ContractViolation);
}

TEST(SimServer, AdmissionControlCapsConcurrentSessions) {
  ServeOptions options = small_serve_options();
  options.max_sessions = 2;
  SimServer server = make_server(options);

  SimServer::Opened first = server.open_session(TransportKind::kShm);
  SimServer::Opened second = server.open_session(TransportKind::kShm);
  EXPECT_THROW((void)server.open_session(TransportKind::kShm), Error);
  EXPECT_EQ(server.sessions_rejected(), 1u);
  EXPECT_EQ(server.active_sessions(), 2u);

  // Completing a session frees its slot.
  SessionClient c1(std::move(first.source));
  SessionClient c2(std::move(second.source));
  server.pump_all();
  for (int round = 0; round < 100'000; ++round) {
    (void)c1.poll();
    (void)c2.poll();
    if (server.drain() && c1.done() && c2.done()) break;
  }
  EXPECT_EQ(server.active_sessions(), 0u);
  SimServer::Opened third = server.open_session(TransportKind::kShm);
  EXPECT_EQ(server.report(third.id).index, 2u);  // sweep index continues
}

TEST(SimServer, FileBackedRingSessionAttachesByPath) {
  ServeOptions options = small_serve_options();
  options.shm_dir = temp_path("shmdir");
  ASSERT_EQ(::mkdir(options.shm_dir.c_str(), 0755), 0);

  SimServer server = make_server(options);
  SimServer::Opened opened = server.open_session(TransportKind::kShm);
  ASSERT_FALSE(opened.ring_path.empty());

  // An out-of-process-style client: attach the ring file, ignore the
  // in-process source.
  SessionClient client(std::make_unique<RingSource>(
      std::shared_ptr<FrameRing>(FrameRing::attach(opened.ring_path))));
  server.pump_all();
  for (int round = 0; round < 100'000; ++round) {
    (void)client.poll();
    if (server.drain() && client.done()) break;
  }
  EXPECT_TRUE(client.report().accounted());
  EXPECT_TRUE(client.report().digest_matches());
  ::unlink(opened.ring_path.c_str());
  ::rmdir(options.shm_dir.c_str());
}

TEST(SimServer, SessionRingSlotsHoldOneRecord) {
  ServeOptions options = small_serve_options();
  options.shm_dir = temp_path("slotdir");
  ASSERT_EQ(::mkdir(options.shm_dir.c_str(), 0755), 0);
  const std::vector<std::uint64_t> oracle = oracle_digests(1, options);

  SimServer server = make_server(options);
  SimServer::Opened opened = server.open_session(TransportKind::kShm);
  std::shared_ptr<FrameRing> ring(FrameRing::attach(opened.ring_path));
  EXPECT_EQ(ring->slot_bytes(), FrameRing::kSlotHeaderBytes + kRecordBytes);
  EXPECT_EQ(ring->slot_count(), options.ring_slot_count);
  SessionClient client(std::make_unique<RingSource>(ring));
  server.pump_all();
  for (int round = 0; round < 100'000; ++round) {
    (void)client.poll();
    if (server.drain() && client.done()) break;
  }
  EXPECT_TRUE(client.report().accounted());
  EXPECT_TRUE(client.report().digest_matches());
  EXPECT_EQ(client.report().frames, options.frame_budget);
  EXPECT_EQ(client.report().digest, oracle[0]);
  ::unlink(opened.ring_path.c_str());
  ::rmdir(options.shm_dir.c_str());
}

TEST(SimServer, RestoreBuiltSystemsMatchFreshBuilds) {
  // Eight concurrent sessions make the pool build eight systems: the first
  // warms by replay, the other seven restore its image. Every session must
  // stream what a fresh build that replays the warm-up computes, an oracle
  // that shares no pool with the server.
  ServeOptions options = small_serve_options();
  constexpr std::size_t kSessions = 8;
  options.max_sessions = kSessions;
  const support::MissionFactory factory = chain_mission_factory();
  const support::PlanFactory plans =
      chain_plan_factory(options.warmup_frames, options.frame_budget);
  const std::vector<std::uint64_t> fresh = support::run_mission_sweep<
      std::uint64_t>(
      kSessions, options.base_seed,
      std::function<std::uint64_t(const support::MissionJob&)>(
          [&](const support::MissionJob& job) {
            support::CrashMission mission = factory();
            mission.system->run(options.warmup_frames);
            mission.system->set_fault_plan(plans(job.seed));
            std::uint64_t digest = kDigestBasis;
            for (Cycle f = 1; f <= options.frame_budget; ++f) {
              mission.system->run_frame();
              fold_record(digest, make_frame_record(*mission.system,
                                                    options.warmup_frames + f));
            }
            return digest;
          }));

  SimServer server = make_server(options);
  const std::vector<ClientReport> reports =
      run_sessions(server, TransportKind::kShm, kSessions);
  EXPECT_EQ(server.pool_stats().constructions, kSessions);
  for (std::size_t i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(reports[i].digest_matches()) << "session " << i;
    EXPECT_EQ(reports[i].digest, fresh[i]) << "session " << i;
  }
}

TEST(SimServer, StalledConsumerGetsGapsAndNeverStallsProduction) {
  ServeOptions options = small_serve_options();
  options.ring_slot_count = 4;   // tiny window
  options.frame_budget = 64;    // far more frames than the ring holds
  SimServer server = make_server(options);

  SimServer::Opened opened = server.open_session(TransportKind::kShm);
  // The client does not poll at all while the server produces: pump_all
  // must still terminate with the full budget produced.
  server.pump_all();
  const SessionReport& mid = server.report(opened.id);
  EXPECT_EQ(mid.frames_produced, options.frame_budget);
  EXPECT_GT(mid.frames_skipped, 0u);
  EXPECT_EQ(mid.frames_streamed + mid.frames_skipped, mid.frames_produced);

  // The consumer comes back: the queued tail (gap + end) drains and the
  // client's accounting tiles the full mission despite the losses.
  SessionClient client(std::move(opened.source));
  for (int round = 0; round < 100'000; ++round) {
    (void)client.poll();
    if (server.drain() && client.done()) break;
  }
  const ClientReport& report = client.report();
  const SessionReport& session = server.report(opened.id);
  EXPECT_TRUE(session.completed);
  EXPECT_TRUE(report.accounted());
  EXPECT_GT(report.gaps, 0u);
  EXPECT_EQ(report.gap_frames, session.frames_skipped);
  EXPECT_EQ(report.frames + report.gap_frames, options.frame_budget);
  EXPECT_TRUE(report.seq_contiguous);
  EXPECT_TRUE(report.frames_contiguous);
  // Lossy delivery: the client's fold cannot match, but the producer's
  // digest still proves what the mission computed.
  EXPECT_FALSE(report.digest_matches());
  EXPECT_EQ(report.producer_digest, session.producer_digest);
}

TEST(SessionClient, LatencySinkSeesEveryFrameRecord) {
  ServeOptions options = small_serve_options();
  SimServer server = make_server(options);
  SimServer::Opened opened = server.open_session(TransportKind::kShm);
  std::uint64_t sink_calls = 0;
  SessionClient client(std::move(opened.source),
                       [&](std::uint64_t ns) { (void)ns; ++sink_calls; });
  server.pump_all();
  for (int round = 0; round < 100'000; ++round) {
    (void)client.poll();
    if (server.drain() && client.done()) break;
  }
  EXPECT_EQ(sink_calls, client.report().frames);
  EXPECT_EQ(sink_calls, options.frame_budget);
}

// --- bench::Log2Histogram (shared percentile helper) ---

TEST(Log2Histogram, ExactForSmallValuesAndQuantiles) {
  bench::Log2Histogram hist;
  for (std::uint64_t v = 0; v < 10; ++v) hist.record(v);
  EXPECT_EQ(hist.count(), 10u);
  EXPECT_EQ(hist.max(), 9u);
  EXPECT_EQ(hist.quantile(0.0), 0u);
  EXPECT_EQ(hist.p50(), 4u);  // rank 4 of 0..9
  EXPECT_EQ(hist.quantile(1.0), 9u);
}

TEST(Log2Histogram, PercentilesWithinBucketResolution) {
  bench::Log2Histogram hist;
  // 99 fast samples at ~1us, one slow outlier at ~1ms.
  for (int i = 0; i < 99; ++i) hist.record(1'000);
  hist.record(1'000'000);
  const std::uint64_t p50 = hist.p50();
  const std::uint64_t p99 = hist.p99();
  EXPECT_GE(p50, 960u);  // within one 1/16 sub-bucket below
  EXPECT_LE(p50, 1'000u);
  EXPECT_LE(p99, 1'000u);  // the outlier is past rank 98 of 100
  // quantile() reports the bucket floor (conservative), so the top rank
  // lands within one sub-bucket below the outlier; max() is exact.
  EXPECT_GE(hist.quantile(1.0), 1'000'000u * 15 / 16);
  EXPECT_LE(hist.quantile(1.0), 1'000'000u);
  EXPECT_EQ(hist.max(), 1'000'000u);
  EXPECT_GT(hist.mean(), 1'000.0);
}

TEST(Log2Histogram, MergeAccumulates) {
  bench::Log2Histogram a;
  bench::Log2Histogram b;
  for (int i = 0; i < 50; ++i) a.record(100);
  for (int i = 0; i < 50; ++i) b.record(10'000);
  a.merge(b);
  EXPECT_EQ(a.count(), 100u);
  EXPECT_EQ(a.max(), 10'000u);
  EXPECT_LE(a.p50(), 100u);
  EXPECT_GT(a.p95(), 9'000u);
}

}  // namespace
}  // namespace arfs::serve
