// arfsctl — command-line front end for the library.
//
//   arfsctl describe <spec>                 print the reconfiguration spec
//   arfsctl certify  <spec>                 run the full static assurance
//   arfsctl simulate <spec> [frames] [seed] run a random fault campaign,
//                                           print SFTA phase tables and the
//                                           SP1-SP4 report
//   arfsctl sweep <spec> [--frames N] [--io-fault torn|bitflip] [--warm]
//                 [--adaptive] [--json]
//                                           crash-point sweep: fail-stop the
//                                           mission's durable victim at every
//                                           frame and verify each recovery
//                                           (rolling O(F) strategy)
//   arfsctl engine stat <spec> [--adaptive] [--frames N] [--json]
//                                           run a durable mission and print
//                                           the victim's durability-engine
//                                           counters (journal, snapshots,
//                                           adaptive watermark)
//   arfsctl fleet <spec> [--samples N] [--frames F] [--warmup W]
//                 [--shards S] [--threads T] [--no-pool] [--json [path]]
//                                           fleet-scale Monte-Carlo mission
//                                           sweep: N independent missions of
//                                           the spec's system under seeded
//                                           environment campaigns, streamed
//                                           through the sharded fleet engine
//                                           with checkpoint-seeded system
//                                           pools (digest is thread- and
//                                           shard-count invariant)
//   arfsctl economics <full> <safe> <fail>  section 5.1 component counts
//   arfsctl journal dump <file>             pretty-print a write-ahead
//                                           journal's records
//   arfsctl journal verify <file>           scan a journal, reporting the
//                                           first corrupt offset (exit 1)
//   arfsctl journal repair <file> [--dry-run]
//                                           truncate a journal at the first
//                                           corrupt offset so appending can
//                                           resume (--dry-run only reports)
//   arfsctl journal demo <file> [commits] [seed]
//                                           write a sample journal file
//   arfsctl journal stats <file> [--json]   recover a journal through a
//                                           simulated engine and print the
//                                           recovery/decode counters (the
//                                           file itself is never modified)
//   arfsctl journal ship <src> <dst> [--cursor N]
//                                           replicate a source journal's
//                                           valid prefix into <dst> in
//                                           CRC-framed batches (resumes at
//                                           <dst>'s end, or at offset N)
//   arfsctl serve [spec] [--sessions N] [--frames F] [--warmup W]
//                 [--transport shm|socket] [--slots N] [--seed B]
//                                           resident-service demo: open N
//                                           concurrent streaming sessions
//                                           against one warm system pool and
//                                           audit every delivered stream
//                                           against its producer digest
//   arfsctl session <dir> [spec] [--frames F] [--warmup W] [--seed B]
//                 [--slots N] [--watermark BYTES] [--timeout-ms T]
//                                           produce one session into a
//                                           file-backed shared-memory ring
//                                           under <dir> (prints the ring
//                                           path; pair with `attach` from
//                                           another process)
//   arfsctl attach <ring-file> [--timeout-ms T]
//                                           attach a session's ring file,
//                                           consume the stream, and verify
//                                           the delivery contract
//   arfsctl arena stat <file>               summarize a result-arena file
//                                           (chunks, payload, padding)
//   arfsctl arena verify <file>             scan an arena file, CRC-checking
//                                           every sealed chunk (exit 1 on
//                                           structural or CRC failure)
//   arfsctl json <file...>                  structurally validate JSON files
//                                           (the BENCH_*.json gate; exits
//                                           nonzero when any file is
//                                           unreadable or invalid)
//
// <spec> selects a built-in specification:
//   uav          the paper's section 7 avionics example
//   uav-ext      avionics + computer-status extension (4 configurations)
//   chain[:N]    an N-level degradation chain (default 4)
//   random[:S]   a randomized specification from seed S (default 1)

#include <charconv>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <vector>

#include "arfs/analysis/certify.hpp"
#include "arfs/analysis/economics.hpp"
#include "arfs/storage/arena.hpp"
#include "arfs/support/bench_json.hpp"
#include "arfs/avionics/uav_system.hpp"
#include "arfs/core/describe.hpp"
#include "arfs/core/system.hpp"
#include "arfs/props/report.hpp"
#include "arfs/serve/client.hpp"
#include "arfs/serve/server.hpp"
#include "arfs/storage/durable/backend.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/storage/durable/journal.hpp"
#include "arfs/storage/durable/shipping.hpp"
#include "arfs/storage/durable/wire.hpp"
#include "arfs/storage/stable_storage.hpp"
#include "arfs/sim/fleet.hpp"
#include "arfs/support/crash_sweep.hpp"
#include "arfs/support/fleet.hpp"
#include "arfs/support/mission.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"
#include "arfs/trace/export.hpp"

namespace {

using namespace arfs;

int usage() {
  std::cerr
      << "usage: arfsctl <describe|certify|simulate|sweep|fleet|economics>"
         " ...\n"
         "  describe <uav|uav-ext|chain[:N]|random[:S]>\n"
         "  certify  <spec> [--json]\n"
         "  simulate <spec> [frames=400] [seed=1]\n"
         "  sweep    <spec> [--frames N] [--io-fault torn|bitflip] [--warm]\n"
         "           [--adaptive] [--quorum N] [--kill K] [--json]\n"
         "  engine   stat <spec> [--adaptive] [--frames N] [--json]\n"
         "  quorum   <demo|status> [spec=chain] [--replicas N] [--frames F]\n"
         "           [--kill K]\n"
         "  fleet    <spec> [--samples N] [--frames F] [--warmup W]\n"
         "           [--shards S] [--threads T] [--seed B] [--no-pool]\n"
         "           [--arena PATH] [--json [path]]\n"
         "  serve    [spec=chain] [--sessions N] [--frames F] [--warmup W]\n"
         "           [--transport shm|socket] [--slots N] [--seed B]\n"
         "  session  <dir> [spec=chain] [--frames F] [--warmup W]\n"
         "           [--seed B] [--slots N] [--watermark BYTES]\n"
         "           [--timeout-ms T]\n"
         "  attach   <ring-file> [--timeout-ms T]\n"
         "  economics <full-units> <safe-units> <expected-failures>\n"
         "  journal <dump|verify> <file>\n"
         "  journal repair <file> [--dry-run]\n"
         "  journal demo <file> [commits=16] [seed=1]\n"
         "  journal stats <file> [--json]\n"
         "  journal ship <src> <dst> [--cursor N]\n"
         "  arena <stat|verify> <file>\n"
         "  json <file...>        (exits nonzero when any file is invalid)\n";
  return 2;
}

/// A whole decimal number: digits only (no sign, space, base prefix or
/// suffix) that fits T. nullopt otherwise — strtoul would read "4x" as 4,
/// "abc" as 0 and wrap "-1" to the type's maximum.
template <typename T>
std::optional<T> to_number(std::string_view text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string_view::npos) {
    return std::nullopt;
  }
  T value{};
  if (std::from_chars(text.data(), text.data() + text.size(), value).ec !=
      std::errc{}) {
    return std::nullopt;  // out of T's range
  }
  return value;
}

/// A malformed numeric argument; main() answers it with usage and exit 2.
struct BadNumber : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

/// Parses a numeric argument into `out`, checked against out's own type.
/// Throws BadNumber on anything to_number rejects.
template <typename T>
void parse_number(std::string_view text, T& out) {
  const std::optional<T> value = to_number<T>(text);
  if (!value.has_value()) {
    throw BadNumber("not a number: '" + std::string(text) + "'");
  }
  out = *value;
}

struct SpecChoice {
  core::ReconfigSpec spec;
  SimDuration frame_length = 10'000;
  bool is_uav = false;
};

std::optional<SpecChoice> make_spec(const std::string& name) {
  const auto split = name.find(':');
  const std::string kind = name.substr(0, split);
  const std::string arg =
      split == std::string::npos ? "" : name.substr(split + 1);

  SpecChoice choice;
  if (kind == "uav" || kind == "uav-ext") {
    avionics::UavSpecOptions options;
    options.dwell_frames = 10;
    options.with_computer_status = (kind == "uav-ext");
    choice.spec = avionics::make_uav_spec(options);
    choice.frame_length = 20'000;
    choice.is_uav = true;
    return choice;
  }
  if (kind == "chain") {
    support::ChainSpecParams params;
    if (!arg.empty()) {
      const std::optional<std::size_t> configs = to_number<std::size_t>(arg);
      if (!configs.has_value()) return std::nullopt;
      params.configs = *configs;
    }
    if (params.configs < 2) params.configs = 4;
    choice.spec = support::make_chain_spec(params);
    return choice;
  }
  if (kind == "random") {
    support::RandomSpecParams params;
    const std::optional<std::uint64_t> seed =
        arg.empty() ? 1 : to_number<std::uint64_t>(arg);
    if (!seed.has_value()) return std::nullopt;
    choice.spec = support::make_random_spec(params, *seed);
    return choice;
  }
  return std::nullopt;
}

int cmd_describe(const SpecChoice& choice) {
  std::cout << core::describe(choice.spec);
  return 0;
}

int cmd_certify(const SpecChoice& choice, bool json) {
  analysis::CertifyOptions options;
  options.frame_length = choice.frame_length;
  if (choice.is_uav) options.platform = avionics::make_uav_platform();
  const analysis::CertificationReport report =
      analysis::certify(choice.spec, options);
  std::cout << (json ? analysis::render_json(report)
                     : analysis::render(report));
  return report.certified() ? 0 : 1;
}

int cmd_simulate(const SpecChoice& choice, Cycle frames, std::uint64_t seed) {
  const core::ReconfigSpec& spec = choice.spec;
  core::SystemOptions options;
  options.frame_length = choice.frame_length;
  core::System system(spec, options);

  if (choice.is_uav) {
    // The avionics applications need the shared plant; keep it alive for
    // the duration of the run.
    static avionics::UavPlant plant(seed);
    system.add_app(std::make_unique<avionics::AutopilotApp>(plant));
    system.add_app(std::make_unique<avionics::FcsApp>(plant));
  } else {
    for (const core::AppDecl& decl : spec.apps()) {
      system.add_app(
          std::make_unique<support::SimpleApp>(decl.id, decl.name));
    }
  }

  Rng rng(seed);
  sim::CampaignParams campaign;
  campaign.horizon = static_cast<SimTime>(frames) * choice.frame_length * 3 /
                     4;  // quiet tail so the last SFTA completes
  campaign.environment_changes = 8 + frames / 100;
  for (const env::FactorSpec& f : spec.factors().factors()) {
    campaign.factors.push_back(f.id);
    campaign.factor_min = f.min_value;
    campaign.factor_max = f.max_value;
  }
  system.set_fault_plan(sim::generate_campaign(campaign, rng));
  system.run(frames);

  const auto reconfigs = trace::get_reconfigs(system.trace());
  std::cout << "frames: " << frames << ", fault events: "
            << system.stats().fault_events_applied
            << ", reconfigurations: " << reconfigs.size() << "\n\n";
  for (const trace::Reconfiguration& r : reconfigs) {
    std::cout << trace::render_phase_table(system.trace(), r) << "\n";
  }
  const props::TraceReport report = props::check_trace(system.trace(), spec);
  std::cout << props::render(report) << "\n";
  return report.all_hold() ? 0 : 1;
}

int cmd_journal_dump(const std::string& path, bool verify_only) {
  const storage::durable::FileBackend backend(path, /*create=*/false);
  const storage::durable::ScanResult scan =
      storage::durable::scan_journal(backend);
  if (!verify_only) {
    // Interleave dictionary records with the commits they precede, in
    // device order, so the dump mirrors the actual byte layout.
    std::size_t d = 0;
    const auto print_dicts_before = [&](std::uint64_t offset) {
      for (; d < scan.dict_records.size() &&
             scan.dict_records[d].offset < offset;
           ++d) {
        const storage::durable::DictRecordInfo& info = scan.dict_records[d];
        std::cout << "@" << info.offset << " dict ids [" << info.first_id
                  << ".." << info.first_id + info.count << "):";
        for (std::uint32_t i = 0; i < info.count; ++i) {
          std::cout << " " << scan.dict[info.first_id + i];
        }
        std::cout << "\n";
      }
    };
    for (const storage::durable::JournalRecord& record : scan.records) {
      print_dicts_before(record.offset);
      std::cout << storage::durable::to_string(record);
      if (!record.entry_ids.empty()) {
        std::cout << "  ids:";
        for (const std::uint32_t id : record.entry_ids) {
          std::cout << " " << id;
        }
      }
      std::cout << "\n";
    }
    print_dicts_before(scan.valid_bytes);
  }
  std::cout << path << ": " << scan.records.size() << " records, "
            << scan.valid_bytes << " valid bytes of " << backend.size()
            << "\n";
  if (!scan.truncated) {
    std::cout << "journal is clean\n";
    return 0;
  }
  std::cout << "CORRUPT at offset " << scan.valid_bytes << ": " << scan.reason
            << " (recovery would truncate here)\n";
  return 1;
}

int cmd_journal_repair(const std::string& path, bool dry_run) {
  storage::durable::FileBackend backend(path, /*create=*/false);
  const storage::durable::ScanResult scan =
      storage::durable::scan_journal(backend);
  std::cout << path << ": " << scan.records.size() << " records, "
            << scan.valid_bytes << " valid bytes of " << backend.size()
            << "\n";
  if (!scan.truncated) {
    std::cout << "journal is clean; nothing to repair\n";
    return 0;
  }
  std::cout << "CORRUPT at offset " << scan.valid_bytes << ": " << scan.reason
            << "\n";
  const std::uint64_t discard = backend.size() - scan.valid_bytes;
  if (dry_run) {
    std::cout << "dry run: would truncate " << discard << " bytes at offset "
              << scan.valid_bytes << "\n";
    return 1;
  }
  backend.truncate(scan.valid_bytes);
  if (!backend.sync()) {
    std::cerr << "repair: sync after truncate failed\n";
    return 1;
  }
  std::cout << "truncated " << discard << " bytes; journal ends at offset "
            << scan.valid_bytes << "\n";
  return 0;
}

int cmd_journal_demo(const std::string& path, Cycle commits,
                     std::uint64_t seed) {
  auto file = std::make_unique<storage::durable::FileBackend>(path);
  file->truncate(0);  // a demo always starts a fresh journal
  storage::durable::DurabilityEngine engine(
      std::move(file), std::make_unique<storage::durable::MemoryBackend>());
  storage::StableStorage store;
  Rng rng(seed);
  for (Cycle c = 0; c < commits; ++c) {
    store.write("altitude_m", static_cast<std::int64_t>(rng.uniform(0, 12000)));
    store.write("mode", std::string(c % 3 == 0 ? "cruise" : "climb"));
    store.write("fuel_frac", rng.uniform01());
    store.write("gear_down", c % 5 == 0);
    engine.record_commit(store, c);
    store.commit(c);
  }
  std::cout << "wrote " << commits << " commits ("
            << engine.stats().bytes_appended << " bytes) to " << path << "\n";
  return 0;
}

int cmd_journal_stats(const std::string& path, bool json) {
  // The file's bytes are loaded into a simulated device so the recovery
  // below can never modify the journal on disk (a corrupt tail would
  // otherwise be truncated, which is `journal repair`'s job).
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    std::cerr << "stats: cannot read " << path << "\n";
    return 1;
  }
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string& bytes = raw.str();
  storage::durable::DurabilityEngine engine(
      std::make_unique<storage::durable::MemoryBackend>(
          std::vector<std::uint8_t>(bytes.begin(), bytes.end()),
          std::vector<std::uint8_t>()),
      std::make_unique<storage::durable::MemoryBackend>());

  storage::StableStorage store;
  const storage::durable::RecoveryReport report = engine.recover_into(store);
  const storage::durable::DurabilityStats& stats = engine.stats();

  if (json) {
    std::string file;
    support::append_escaped(file, path);
    std::cout << "{\"file\": " << file << ", \"records\": "
              << report.records_applied << ", \"valid_bytes\": "
              << report.valid_bytes << ", \"truncated\": "
              << (report.journal_truncated ? "true" : "false")
              << ", \"last_epoch\": " << report.last_epoch
              << ", \"decode_buffer_reuses\": " << stats.decode_buffer_reuses
              << "}\n";
  } else {
    std::cout << path << ": " << report.records_applied << " commits, "
              << report.valid_bytes << " valid bytes, last epoch "
              << report.last_epoch
              << (report.journal_truncated ? " (CORRUPT tail)" : ", clean")
              << "\n"
              << "decode: " << stats.decode_buffer_reuses
              << " scratch-buffer reuses\n";
  }
  return report.journal_truncated ? 1 : 0;
}

int cmd_journal_ship(const std::string& src_path, const std::string& dst_path,
                     std::optional<std::uint64_t> cursor_arg) {
  using storage::durable::kHeaderSize;

  const storage::durable::FileBackend src(src_path, /*create=*/false);
  const storage::durable::ScanResult src_scan =
      storage::durable::scan_journal(src);
  if (!src_scan.header_ok) {
    std::cerr << "ship: " << src_path << " is not a journal\n";
    return 1;
  }
  if (src_scan.truncated) {
    std::cout << "note: source is corrupt at offset " << src_scan.valid_bytes
              << " (" << src_scan.reason << "); shipping the valid prefix\n";
  }

  storage::durable::FileBackend dst(dst_path, /*create=*/true);
  if (!storage::durable::ensure_header(dst)) {
    std::cerr << "ship: " << dst_path << " is not a journal\n";
    return 1;
  }
  const storage::durable::ScanResult dst_scan =
      storage::durable::scan_journal(dst);
  if (dst_scan.truncated) {
    std::cerr << "ship: destination is corrupt at offset "
              << dst_scan.valid_bytes << " (" << dst_scan.reason
              << "); repair it first\n";
    return 1;
  }

  // The replica replays the destination's existing prefix first, so its
  // dictionary and epoch horizon resume exactly where the last ship ended.
  storage::durable::ShippedReplica replica;
  if (dst_scan.valid_bytes > kHeaderSize) {
    storage::durable::ShipBatch preload;
    preload.offset = kHeaderSize;
    preload.bytes.resize(
        static_cast<std::size_t>(dst_scan.valid_bytes - kHeaderSize));
    dst.read(kHeaderSize, preload.bytes.data(), preload.bytes.size());
    preload.crc = storage::durable::crc32(preload.bytes.data(),
                                          preload.bytes.size());
    if (replica.apply(preload) != storage::durable::ApplyStatus::kApplied) {
      std::cerr << "ship: destination prefix did not replay cleanly\n";
      return 1;
    }
  }

  const std::uint64_t resume =
      std::max<std::uint64_t>(cursor_arg.value_or(dst_scan.valid_bytes),
                              kHeaderSize);
  if (resume > dst_scan.valid_bytes) {
    std::cerr << "ship: cursor " << resume
              << " is past the destination's valid end ("
              << dst_scan.valid_bytes << "); that would leave a hole\n";
    return 1;
  }
  if (resume >= src_scan.valid_bytes) {
    std::cout << "up to date: destination already holds the source's "
              << src_scan.valid_bytes << " valid bytes\n";
    return 0;
  }

  // Ship in framed batches through the wire encoding — the same round-trip
  // a transmitted batch takes — applying each to the replica and appending
  // the verified new suffix to the destination.
  constexpr std::size_t kBatchBytes = 4096;
  std::uint64_t offset = resume;
  std::uint64_t appended_from = dst_scan.valid_bytes;
  std::uint64_t batches = 0;
  std::vector<std::uint8_t> frame;
  while (offset < src_scan.valid_bytes) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kBatchBytes, src_scan.valid_bytes - offset));
    storage::durable::ShipBatch batch;
    batch.offset = offset;
    batch.bytes.resize(n);
    src.read(offset, batch.bytes.data(), n);
    batch.crc = storage::durable::crc32(batch.bytes.data(), n);

    frame.clear();
    storage::durable::encode_batch(frame, batch);
    const std::optional<storage::durable::ShipBatch> received =
        storage::durable::decode_batch(frame.data(), frame.size());
    if (!received.has_value()) {
      std::cerr << "ship: batch at offset " << offset
                << " failed the wire round-trip\n";
      return 1;
    }
    const storage::durable::ApplyStatus status = replica.apply(*received);
    if (status != storage::durable::ApplyStatus::kApplied &&
        status != storage::durable::ApplyStatus::kDuplicate) {
      std::cerr << "ship: batch at offset " << offset
                << " was rejected by the replica\n";
      return 1;
    }
    const std::uint64_t end = offset + n;
    if (end > appended_from) {
      const std::size_t skip =
          static_cast<std::size_t>(appended_from - offset);
      dst.append(batch.bytes.data() + skip, n - skip);
      appended_from = end;
    }
    offset = end;
    ++batches;
  }
  if (!dst.sync()) {
    std::cerr << "ship: destination sync failed\n";
    return 1;
  }

  const storage::durable::ScanResult verify =
      storage::durable::scan_journal(dst);
  const storage::durable::ShippedReplica::Stats& stats = replica.stats();
  std::cout << "shipped " << (src_scan.valid_bytes - resume) << " bytes in "
            << batches << " batches from offset " << resume << "\n"
            << "replica: " << stats.records_applied << " commits applied, "
            << stats.dict_records << " dict records, epoch "
            << replica.cursor().epoch << ", fingerprint 0x" << std::hex
            << replica.store().fingerprint() << std::dec << "\n"
            << dst_path << ": " << verify.records.size() << " records, "
            << verify.valid_bytes << " valid bytes"
            << (verify.truncated ? " (CORRUPT)" : ", clean") << "\n";
  return verify.truncated ? 1 : 0;
}

/// Builds the sweep's mission for a built-in spec name. Chain/random specs
/// run the declared apps as SimpleApps; the uav specs run the section 7
/// avionics mission (autopilot + FCS, power-driven reconfigurations, plant
/// seed 42). The factory re-derives everything from the name on each call,
/// so concurrent crash-point jobs share no mutable state.
support::MissionFactory sweep_mission_factory(
    const std::string& spec_name, bool shipping,
    std::uint32_t quorum_replicas = 1, bool adaptive = false) {
  return [spec_name, shipping, quorum_replicas, adaptive] {
    struct Bundle {
      SpecChoice choice;
      std::optional<avionics::UavPlant> plant;
    };
    auto bundle = std::make_shared<Bundle>();
    bundle->choice = *make_spec(spec_name);

    core::SystemOptions options;
    options.frame_length = bundle->choice.frame_length;
    options.durable_storage = true;
    options.journal_shipping = shipping;
    options.quorum_replicas = quorum_replicas;
    options.durability.snapshot_every_epochs =
        bundle->choice.is_uav ? 16 : 7;
    if (adaptive) {
      options.durability.sync = storage::durable::SyncPolicy::adaptive();
    }
    auto system =
        std::make_unique<core::System>(bundle->choice.spec, options);
    if (bundle->choice.is_uav) {
      bundle->plant.emplace(42);
      system->add_app(
          std::make_unique<avionics::AutopilotApp>(*bundle->plant));
      system->add_app(std::make_unique<avionics::FcsApp>(*bundle->plant));
      support::MissionProfile mission(options.frame_length);
      mission.at(10, avionics::kPowerFactor, 1)
          .at(25, avionics::kPowerFactor, 2)
          .at(40, avionics::kPowerFactor, 0);
      system->set_fault_plan(mission.build());
    } else {
      for (const core::AppDecl& decl : bundle->choice.spec.apps()) {
        system->add_app(
            std::make_unique<support::SimpleApp>(decl.id, decl.name));
      }
    }
    support::CrashMission mission;
    mission.keepalive = bundle;
    mission.system = std::move(system);
    return mission;
  };
}

int cmd_sweep(const std::string& spec_name, bool is_uav,
              const support::CrashSweepOptions& sweep_options,
              std::uint32_t quorum_replicas, bool adaptive, bool json) {
  support::CrashSweepOptions options = sweep_options;
  options.victim =
      is_uav ? avionics::kComputer1 : support::synthetic_processor(0);
  const support::CrashSweepReport report = support::run_crash_sweep(
      sweep_mission_factory(spec_name, options.warm_start, quorum_replicas,
                            adaptive),
      options);

  const char* fault =
      options.io_fault == support::CrashSweepOptions::IoFault::kTornWrite
          ? "torn"
          : options.io_fault == support::CrashSweepOptions::IoFault::kBitFlip
                ? "bitflip"
                : "none";
  if (json) {
    std::cout << "{\"spec\": \"" << spec_name << "\", \"frames\": "
              << options.frames << ", \"io_fault\": \"" << fault
              << "\", \"warm_start\": "
              << (options.warm_start ? "true" : "false")
              << ", \"simulated_frames\": " << report.simulated_frames
              << ", \"mismatches\": " << report.mismatches
              << ", \"replica_mismatches\": " << report.replica_mismatches
              << ", \"max_lost_frames\": " << report.max_lost_frames
              << ", \"digest\": \"0x" << std::hex << report.digest()
              << std::dec << "\"}\n";
  } else {
    std::cout << "crash-point sweep: " << spec_name << ", " << options.frames
              << " crash points, io-fault " << fault
              << (options.warm_start ? ", warm-start" : "") << "\n"
              << report.simulated_frames << " frames simulated (from-scratch"
              << " would need "
              << options.frames * (options.frames + 1) / 2 << ")\n"
              << "mismatches: " << report.mismatches
              << ", replica mismatches: " << report.replica_mismatches
              << ", max lost frames: " << report.max_lost_frames << "\n"
              << "report digest: 0x" << std::hex << report.digest()
              << std::dec << "\n"
              << (report.all_match() ? "all crash points recovered exactly"
                                     : "RECOVERY CONTRACT VIOLATED")
              << "\n";
  }
  return report.all_match() ? 0 : 1;
}

/// Runs a durable mission and prints the victim processor's engine
/// counters — the operator's window onto journaling, snapshots, and the
/// adaptive sync controller.
int cmd_engine_stat(const std::string& spec_name, bool is_uav, bool adaptive,
                    Cycle frames, bool json) {
  support::CrashMission mission = sweep_mission_factory(
      spec_name, /*shipping=*/false, /*quorum_replicas=*/1, adaptive)();
  core::System& system = *mission.system;
  system.run(frames);

  const ProcessorId victim =
      is_uav ? avionics::kComputer1 : support::synthetic_processor(0);
  storage::durable::DurabilityEngine* engine =
      system.processors().processor(victim).durability();
  if (engine == nullptr) {
    std::cerr << "engine stat: victim processor has no durable storage\n";
    return 1;
  }
  const storage::durable::DurabilityStats& stats = engine->stats();

  if (json) {
    std::cout << "{\"spec\": \"" << spec_name << "\", \"frames\": " << frames
              << ", \"sync_mode\": \"" << to_string(engine->options().sync.mode)
              << "\", \"commits\": " << stats.commits_journaled
              << ", \"bytes_appended\": " << stats.bytes_appended
              << ", \"syncs\": " << stats.syncs
              << ", \"forced_syncs\": " << stats.forced_syncs
              << ", \"snapshots\": " << stats.snapshots_taken
              << ", \"last_durable_epoch\": " << stats.last_durable_epoch
              << ", \"decode_buffer_reuses\": " << stats.decode_buffer_reuses
              << ", \"adaptive_watermark_bytes\": "
              << stats.adaptive_watermark_bytes
              << ", \"adaptive_raises\": " << stats.adaptive_raises
              << ", \"adaptive_drops\": " << stats.adaptive_drops
              << ", \"pressure_engagements\": " << stats.pressure_engagements
              << ", \"pressure_syncs\": " << stats.pressure_syncs << "}\n";
  } else {
    std::cout << "engine stat: " << spec_name << ", sync "
              << to_string(engine->options().sync.mode) << ", " << frames
              << " frames\n"
              << "journal: " << stats.commits_journaled << " commits, "
              << stats.bytes_appended << " bytes, " << stats.syncs
              << " syncs (" << stats.forced_syncs << " forced), last durable"
              << " epoch " << stats.last_durable_epoch << "\n"
              << "snapshots: " << stats.snapshots_taken << " taken, "
              << stats.snapshot_gc_runs << " GC runs, "
              << stats.snapshot_bytes_reclaimed << " bytes reclaimed\n"
              << "decode: " << stats.decode_buffer_reuses
              << " scratch-buffer reuses\n";
    if (engine->options().sync.mode == storage::durable::SyncMode::kAdaptive) {
      std::cout << "adaptive: watermark " << stats.adaptive_watermark_bytes
                << " bytes (" << stats.adaptive_raises << " raises, "
                << stats.adaptive_drops << " drops), pressure "
                << stats.pressure_engagements << " engagements, "
                << stats.pressure_syncs << " extra syncs\n";
    }
  }
  return 0;
}

/// Builds a quorum mission, runs it, optionally fail-stops the elected
/// leader `kills` times (re-electing between kills), catches the cohort up,
/// and renders it. `demo` additionally asserts the commit rule: a live
/// majority acknowledges exactly the epoch the leader's replica serves, and
/// that replica is bit-identical to the source's committed store.
int cmd_quorum(bool demo, const std::string& spec_name, bool is_uav,
               std::uint32_t replicas, Cycle frames, std::uint32_t kills) {
  support::CrashMission mission =
      sweep_mission_factory(spec_name, /*shipping=*/true, replicas)();
  core::System& system = *mission.system;
  system.run(frames);

  const ProcessorId victim =
      is_uav ? avionics::kComputer1 : support::synthetic_processor(0);
  for (std::uint32_t k = 0; k < kills; ++k) {
    const auto leader = system.quorum_group(victim).leader();
    if (!leader.has_value()) {
      std::cerr << "arfsctl: cohort exhausted after " << k << " kills\n";
      return 1;
    }
    system.fail_quorum_member(victim, *leader);
    std::cout << "fail-stopped shipper-leader (member " << *leader << ")\n";
  }
  const core::System::ShipCatchUp catch_up = system.ship_catch_up(victim);

  const auto& group = system.quorum_group(victim);
  std::cout << "quorum " << (demo ? "demo" : "status") << ": " << spec_name
            << ", " << group.member_count() << " members, " << frames
            << " frames\n";
  for (storage::durable::quorum::MemberId m = 0; m < group.member_count();
       ++m) {
    std::cout << "  member " << m << ": "
              << (group.member_retired(m)
                      ? "retired"
                      : group.member_live(m) ? "live" : "fail-stopped")
              << (group.leader() == m ? ", leader" : "") << ", last-applied "
              << group.last_applied(m) << "\n";
  }
  std::cout << "commit id: " << group.commit_id() << " ("
            << group.live_count() << "/" << group.member_count()
            << " live, majority " << (group.has_majority() ? "held" : "LOST")
            << ")\n";
  const storage::durable::quorum::QuorumStats& stats = group.stats();
  std::cout << "shipped " << stats.bytes_shipped << " bytes in "
            << stats.batches_shipped << " batches; elections "
            << stats.elections << ", reseeds " << stats.reseeds
            << ", catch-up " << catch_up.bytes << " bytes\n";
  if (!demo) return 0;

  const auto& proc = system.processors().processor(victim);
  const storage::durable::ShippedReplica& replica =
      system.ship_replica(victim);
  const bool rule =
      group.has_majority() &&
      group.commit_id() == replica.store().commit_epochs() &&
      replica.store().fingerprint() == proc.poll_stable().fingerprint();
  std::cout << (rule ? "quorum demo ok: majority-acked boundary matches the"
                       " leader replica"
                     : "QUORUM COMMIT RULE VIOLATED")
            << "\n";
  return rule ? 0 : 1;
}

/// Builds the fleet sweep's mission for a built-in spec name: like
/// sweep_mission_factory, but with no baked fault plan — every fleet sample
/// installs its own seeded campaign at the warm point, so the factory's
/// warm-up prefix must be plan-free.
support::MissionFactory fleet_mission_factory(const std::string& spec_name) {
  return [spec_name] {
    struct Bundle {
      SpecChoice choice;
      std::optional<avionics::UavPlant> plant;
    };
    auto bundle = std::make_shared<Bundle>();
    bundle->choice = *make_spec(spec_name);

    core::SystemOptions options;
    options.frame_length = bundle->choice.frame_length;
    options.durable_storage = true;
    options.durability.snapshot_every_epochs =
        bundle->choice.is_uav ? 16 : 7;
    auto system =
        std::make_unique<core::System>(bundle->choice.spec, options);
    if (bundle->choice.is_uav) {
      bundle->plant.emplace(42);
      system->add_app(
          std::make_unique<avionics::AutopilotApp>(*bundle->plant));
      system->add_app(std::make_unique<avionics::FcsApp>(*bundle->plant));
    } else {
      for (const core::AppDecl& decl : bundle->choice.spec.apps()) {
        system->add_app(
            std::make_unique<support::SimpleApp>(decl.id, decl.name));
      }
    }
    support::CrashMission mission;
    mission.keepalive = bundle;
    mission.system = std::move(system);
    return mission;
  };
}

/// The serving layer's plan factory for a built-in spec: the same seeded
/// environment campaign a fleet sweep would install, so session i streams
/// exactly what fleet sample i would compute.
support::PlanFactory serve_plan_factory(const SpecChoice& choice,
                                        const serve::ServeOptions& options) {
  support::EnvPlanParams params;
  params.factors = choice.spec.factors().factors();
  params.changes = 3;
  params.first_frame = options.warmup_frames;
  params.frames = options.frame_budget;
  params.frame_length = choice.frame_length;
  return support::make_env_plan_factory(std::move(params));
}

int cmd_serve(const std::string& spec_name, const SpecChoice& choice,
              std::size_t sessions, serve::ServeOptions options,
              serve::TransportKind kind) {
  options.max_sessions = sessions;
  serve::SimServer server(fleet_mission_factory(spec_name),
                          serve_plan_factory(choice, options), options);

  std::vector<std::unique_ptr<serve::SessionClient>> clients;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < sessions; ++i) {
    serve::SimServer::Opened opened = server.open_session(kind);
    ids.push_back(opened.id);
    clients.push_back(
        std::make_unique<serve::SessionClient>(std::move(opened.source)));
  }

  // Interleave production with client polls; then drain the queued tails.
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

  std::uint64_t streamed = 0;
  std::uint64_t skipped = 0;
  std::uint64_t gaps = 0;
  std::size_t accounted = 0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < sessions; ++i) {
    const serve::SessionReport& rep = server.report(ids[i]);
    const serve::ClientReport& seen = clients[i]->report();
    streamed += rep.frames_streamed;
    skipped += rep.frames_skipped;
    gaps += rep.gap_records;
    // A lossless stream must digest-match; a lossy one must still tile the
    // mission exactly (explicit gaps, contiguous seq/frame accounting).
    if (seen.accounted()) ++accounted;
    if (seen.accounted() &&
        (seen.gap_frames > 0 ? true : seen.digest_matches())) {
      ++matched;
    }
  }
  const support::SystemPool::Stats pool = server.pool_stats();
  std::cout << "serve demo: " << spec_name << ", " << sessions << " "
            << serve::to_string(kind) << " sessions x "
            << options.frame_budget << " frames (+" << options.warmup_frames
            << " warm-up)\n"
            << "streamed " << streamed << " frames, skipped " << skipped
            << " (" << gaps << " gap records), pool constructed "
            << pool.constructions << " systems for "
            << server.sessions_opened() << " sessions\n";
  if (matched == sessions) {
    std::cout << "serve demo ok: " << accounted << "/" << sessions
              << " streams accounted, digests verified\n";
    return 0;
  }
  std::cout << "SERVE CONTRACT VIOLATED: " << matched << "/" << sessions
            << " streams verified\n";
  return 1;
}

int cmd_session(const std::string& dir, const std::string& spec_name,
                const SpecChoice& choice, serve::ServeOptions options,
                std::uint64_t timeout_ms) {
  options.max_sessions = 1;
  options.shm_dir = dir;
  serve::SimServer server(fleet_mission_factory(spec_name),
                          serve_plan_factory(choice, options), options);
  serve::SimServer::Opened opened =
      server.open_session(serve::TransportKind::kShm);
  // The attach-side consumer discovers the session by this line (and by
  // listing <dir>); flush so a pipeline reader sees it before we block.
  std::cout << "ring: " << opened.ring_path << "\n" << std::flush;

  server.pump_all();  // production never waits for the consumer
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!server.drain()) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::cerr << "session: no consumer drained the ring within "
                << timeout_ms << " ms\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const serve::SessionReport& rep = server.report(opened.id);
  std::cout << "session complete: " << rep.frames_produced
            << " frames produced, " << rep.frames_streamed << " streamed, "
            << rep.frames_skipped << " skipped, producer digest 0x"
            << std::hex << rep.producer_digest << std::dec << "\n";
  return rep.completed ? 0 : 1;
}

int cmd_attach(const std::string& path, std::uint64_t timeout_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // The producer creates the file before it publishes the header bytes;
  // retry until the ring scans, not just until the file exists.
  std::shared_ptr<serve::FrameRing> ring;
  for (;;) {
    try {
      ring = serve::FrameRing::attach(path);
      break;
    } catch (const Error&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  serve::SessionClient client(std::make_unique<serve::RingSource>(ring));
  while (!client.done()) {
    if (client.poll() == 0) {
      if (std::chrono::steady_clock::now() >= deadline) {
        std::cerr << "attach: stream did not finish within " << timeout_ms
                  << " ms\n";
        return 1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const serve::ClientReport& rep = client.report();
  std::cout << "attached " << path << ": " << rep.frames << " frames, "
            << rep.gaps << " gaps covering " << rep.gap_frames
            << " frames, digest 0x" << std::hex << rep.digest << std::dec
            << "\n"
            << "producer: " << rep.producer_frames << " frames, "
            << rep.producer_skipped << " skipped, digest 0x" << std::hex
            << rep.producer_digest << std::dec << "\n";
  const bool ok =
      rep.accounted() && (rep.gap_frames > 0 || rep.digest_matches());
  std::cout << (ok ? (rep.gap_frames == 0
                          ? "attach ok: stream accounted, digest match"
                          : "attach ok: stream accounted (lossy, gaps "
                            "explicit)")
                   : "ATTACH CONTRACT VIOLATED")
            << "\n";
  return ok ? 0 : 1;
}

int cmd_fleet(const std::string& spec_name, const SpecChoice& choice,
              const support::FleetMissionOptions& mission_options,
              sim::FleetOptions engine_options, const std::string& arena_path,
              bool json_stdout, const std::string& json_path) {
  support::EnvPlanParams params;
  params.factors = choice.spec.factors().factors();
  params.changes = 3;
  params.first_frame = mission_options.warmup_frames;
  params.frames = mission_options.frames;
  params.frame_length = choice.frame_length;

  // The arena outlives the runner and the report: sealed evidence regions
  // are read back (CRC-verified) at the end of the sweep.
  std::unique_ptr<storage::MappedArena> arena;
  if (!arena_path.empty()) {
    storage::ArenaOptions arena_options;
    arena_options.path = arena_path;
    arena = std::make_unique<storage::MappedArena>(arena_options);
    engine_options.arena = arena.get();
  }

  sim::FleetRunner fleet(engine_options);
  const sim::ShardPlan plan = fleet.plan(mission_options.samples);
  const support::FleetMissionReport report = support::run_fleet_missions(
      fleet_mission_factory(spec_name),
      support::make_env_plan_factory(std::move(params)), mission_options,
      fleet);

  if (json_stdout || !json_path.empty()) {
    std::ostringstream json;
    json << "{\"spec\": \"" << spec_name << "\", \"samples\": "
         << report.samples << ", \"frames\": " << mission_options.frames
         << ", \"warmup\": " << mission_options.warmup_frames
         << ", \"threads\": " << fleet.thread_count()
         << ", \"shards\": " << plan.shards()
         << ", \"pooled\": "
         << (mission_options.pool_systems ? "true" : "false")
         << ", \"fault_events\": " << report.fault_events
         << ", \"reconfigurations\": " << report.reconfigurations
         << ", \"region_relocations\": " << report.region_relocations
         << ", \"deadline_violations\": " << report.deadline_violations
         << ", \"systems_constructed\": " << report.systems_constructed
         << ", \"pool_resets\": " << report.pool_resets
         << ", \"arena_backed\": " << (report.arena_backed ? "true" : "false");
    if (report.arena_backed) {
      json << ", \"evidence_rows\": " << report.evidence_rows
           << ", \"evidence_matches\": "
           << (report.evidence_matches ? "true" : "false");
    }
    json << ", \"digest\": \"0x" << std::hex << report.digest << std::dec
         << "\"}\n";
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      out << json.str();
      if (!out.good()) {
        std::cerr << "arfsctl: failed to write " << json_path << "\n";
        return 1;
      }
    }
    if (json_stdout) std::cout << json.str();
  }
  if (!json_stdout) {
    std::cout << "fleet sweep: " << spec_name << ", " << report.samples
              << " missions x " << mission_options.frames << " frames (+"
              << mission_options.warmup_frames << " warm-up), "
              << fleet.thread_count() << " threads, " << plan.shards()
              << " shards\n"
              << (mission_options.pool_systems
                      ? "checkpoint-seeded pool: "
                      : "construct-per-sample: ")
              << report.systems_constructed << " systems built, "
              << report.pool_resets << " pool resets\n"
              << "fault events: " << report.fault_events
              << ", reconfigurations: " << report.reconfigurations
              << ", relocations: " << report.region_relocations
              << ", deadline violations: " << report.deadline_violations
              << "\n";
    if (report.arena_backed) {
      const storage::MappedArena::Stats astats = arena->stats();
      std::cout << "arena: " << report.evidence_rows
                << " evidence rows in " << astats.regions_sealed
                << " sealed regions (" << astats.file_bytes
                << " file bytes), round-trip digest "
                << (report.evidence_matches ? "matches" : "MISMATCH") << "\n";
    }
    std::cout << "report digest: 0x" << std::hex << report.digest
              << std::dec << "\n";
  }
  return report.arena_backed && !report.evidence_matches ? 1 : 0;
}

int cmd_arena(const std::string& sub, const std::string& path) {
  const storage::ArenaScan scan = storage::scan_arena_file(path);
  if (sub == "stat") {
    std::cout << path << ": " << scan.file_bytes << " bytes, slab "
              << scan.slab_bytes << "\n"
              << "chunks: " << scan.chunks << " (" << scan.sealed
              << " sealed, " << scan.open << " open)\n"
              << "payload: " << scan.payload_bytes << " bytes, padding: "
              << scan.padding_bytes << " bytes\n";
  }
  if (scan.ok) {
    std::cout << "arena is clean (" << scan.sealed
              << " sealed chunks CRC-verified)\n";
    return 0;
  }
  std::cout << "CORRUPT: " << scan.error;
  if (scan.crc_failures > 0) {
    std::cout << (scan.error.empty() ? "" : "; ") << scan.crc_failures
              << " chunk CRC failure(s)";
  }
  std::cout << "\n";
  return 1;
}

int cmd_json(int argc, char** argv, int first) {
  int bad = 0;
  for (int i = first; i < argc; ++i) {
    const std::string path = argv[i];
    std::ifstream in(path, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    const bool ok = in.good() && support::json_valid(bytes.str());
    std::cout << path << ": " << (ok ? "valid" : "INVALID") << "\n";
    if (!ok) ++bad;
  }
  if (bad == 0) {
    std::cout << "all valid (" << (argc - first) << " file(s))\n";
  } else {
    std::cout << bad << " of " << (argc - first) << " file(s) INVALID\n";
  }
  return bad == 0 ? 0 : 1;
}

int cmd_economics(int full, int safe, int failures) {
  analysis::HwEconomicsInput input;
  input.units_full_service = full;
  input.units_safe_service = safe;
  input.max_expected_failures = failures;
  std::cout << analysis::render(analysis::compute_hw_economics(input))
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  try {
    if (cmd == "economics") {
      if (argc != 5) return usage();
      int full = 0, safe = 0, failures = 0;
      parse_number(argv[2], full);
      parse_number(argv[3], safe);
      parse_number(argv[4], failures);
      return cmd_economics(full, safe, failures);
    }

    if (cmd == "journal") {
      if (argc < 4) return usage();
      const std::string sub = argv[2];
      const std::string path = argv[3];
      if (sub == "dump") return cmd_journal_dump(path, /*verify_only=*/false);
      if (sub == "verify") return cmd_journal_dump(path, /*verify_only=*/true);
      if (sub == "repair") {
        const bool dry_run = argc > 4 && std::string(argv[4]) == "--dry-run";
        return cmd_journal_repair(path, dry_run);
      }
      if (sub == "demo") {
        Cycle commits = 16;
        std::uint64_t seed = 1;
        if (argc > 4) parse_number(argv[4], commits);
        if (argc > 5) parse_number(argv[5], seed);
        return cmd_journal_demo(path, commits, seed);
      }
      if (sub == "stats") {
        const bool json = argc > 4 && std::string(argv[4]) == "--json";
        return cmd_journal_stats(path, json);
      }
      if (sub == "ship") {
        if (argc < 5) return usage();
        std::optional<std::uint64_t> cursor;
        if (argc > 5) {
          if (argc != 7 || std::string(argv[5]) != "--cursor") return usage();
          parse_number(argv[6], cursor.emplace());
        }
        return cmd_journal_ship(path, argv[4], cursor);
      }
      return usage();
    }

    if (cmd == "arena") {
      if (argc < 4) return usage();
      const std::string sub = argv[2];
      if (sub != "stat" && sub != "verify") return usage();
      return cmd_arena(sub, argv[3]);
    }

    if (cmd == "json") {
      if (argc < 3) return usage();
      return cmd_json(argc, argv, 2);
    }

    if (cmd == "engine") {
      if (argc < 4 || std::string(argv[2]) != "stat") return usage();
      const std::optional<SpecChoice> choice = make_spec(argv[3]);
      if (!choice.has_value()) return usage();
      bool adaptive = false;
      Cycle frames = 48;
      bool json = false;
      for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--adaptive") {
          adaptive = true;
        } else if (arg == "--frames" && i + 1 < argc) {
          parse_number(argv[++i], frames);
        } else if (arg == "--json") {
          json = true;
        } else {
          return usage();
        }
      }
      if (frames == 0) return usage();
      return cmd_engine_stat(argv[3], choice->is_uav, adaptive, frames, json);
    }

    if (cmd == "quorum") {
      if (argc < 3) return usage();
      const std::string sub = argv[2];
      if (sub != "demo" && sub != "status") return usage();
      std::string spec_name = "chain";
      int i = 3;
      if (argc > 3 && argv[3][0] != '-') spec_name = argv[i++];
      const std::optional<SpecChoice> choice = make_spec(spec_name);
      if (!choice.has_value()) return usage();
      std::uint32_t replicas = 3;
      Cycle frames = 12;
      std::uint32_t kills = sub == "demo" ? 1 : 0;
      for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--replicas" && i + 1 < argc) {
          parse_number(argv[++i], replicas);
        } else if (arg == "--frames" && i + 1 < argc) {
          parse_number(argv[++i], frames);
        } else if (arg == "--kill" && i + 1 < argc) {
          parse_number(argv[++i], kills);
        } else {
          return usage();
        }
      }
      if (replicas == 0 || frames == 0) return usage();
      return cmd_quorum(sub == "demo", spec_name, choice->is_uav, replicas,
                        frames, kills);
    }

    if (cmd == "serve" || cmd == "session") {
      int i = 2;
      std::string dir;
      if (cmd == "session") {
        if (argc < 3 || argv[2][0] == '-') return usage();
        dir = argv[i++];
      }
      std::string spec_name = "chain";
      if (i < argc && argv[i][0] != '-') spec_name = argv[i++];
      const std::optional<SpecChoice> choice = make_spec(spec_name);
      if (!choice.has_value()) return usage();

      serve::ServeOptions options;
      options.frame_budget = 32;
      options.warmup_frames = 4;
      options.ring_slot_count = 128;  // lossless up to the default budget
      std::size_t sessions = 8;
      serve::TransportKind kind = serve::TransportKind::kShm;
      std::uint64_t timeout_ms = 30'000;
      for (; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--sessions" && cmd == "serve" && i + 1 < argc) {
          parse_number(argv[++i], sessions);
        } else if (arg == "--frames" && i + 1 < argc) {
          parse_number(argv[++i], options.frame_budget);
        } else if (arg == "--warmup" && i + 1 < argc) {
          parse_number(argv[++i], options.warmup_frames);
        } else if (arg == "--seed" && i + 1 < argc) {
          parse_number(argv[++i], options.base_seed);
        } else if (arg == "--slots" && i + 1 < argc) {
          parse_number(argv[++i], options.ring_slot_count);
        } else if (arg == "--watermark" && cmd == "session" && i + 1 < argc) {
          parse_number(argv[++i], options.ring_reclaim_watermark);
        } else if (arg == "--timeout-ms" && cmd == "session" &&
                   i + 1 < argc) {
          parse_number(argv[++i], timeout_ms);
        } else if (arg == "--transport" && cmd == "serve" && i + 1 < argc) {
          const std::string t = argv[++i];
          if (t == "shm") {
            kind = serve::TransportKind::kShm;
          } else if (t == "socket") {
            kind = serve::TransportKind::kStream;
          } else {
            return usage();
          }
        } else {
          return usage();
        }
      }
      if (sessions == 0 || options.frame_budget == 0 ||
          options.ring_slot_count == 0) {
        return usage();
      }
      return cmd == "serve"
                 ? cmd_serve(spec_name, *choice, sessions, options, kind)
                 : cmd_session(dir, spec_name, *choice, options, timeout_ms);
    }

    if (cmd == "attach") {
      if (argc < 3 || argv[2][0] == '-') return usage();
      std::uint64_t timeout_ms = 30'000;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--timeout-ms" && i + 1 < argc) {
          parse_number(argv[++i], timeout_ms);
        } else {
          return usage();
        }
      }
      return cmd_attach(argv[2], timeout_ms);
    }

    if (argc < 3) return usage();
    const std::optional<SpecChoice> choice = make_spec(argv[2]);
    if (!choice.has_value()) return usage();

    if (cmd == "describe") return cmd_describe(*choice);
    if (cmd == "certify") {
      const bool json = argc > 3 && std::string(argv[3]) == "--json";
      return cmd_certify(*choice, json);
    }
    if (cmd == "simulate") {
      Cycle frames = 400;
      std::uint64_t seed = 1;
      if (argc > 3) parse_number(argv[3], frames);
      if (argc > 4) parse_number(argv[4], seed);
      return cmd_simulate(*choice, frames, seed);
    }
    if (cmd == "sweep") {
      support::CrashSweepOptions options;
      options.frames = 24;
      std::optional<std::uint32_t> quorum_replicas;
      bool adaptive = false;
      bool json = false;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--frames" && i + 1 < argc) {
          parse_number(argv[++i], options.frames);
        } else if (arg == "--adaptive") {
          adaptive = true;
        } else if (arg == "--quorum" && i + 1 < argc) {
          parse_number(argv[++i], quorum_replicas.emplace());
          options.warm_start = true;  // the cohort IS the warm standby
        } else if (arg == "--kill" && i + 1 < argc) {
          parse_number(argv[++i], options.quorum_kills);
        } else if (arg == "--io-fault" && i + 1 < argc) {
          const std::string fault = argv[++i];
          if (fault == "torn") {
            options.io_fault = support::CrashSweepOptions::IoFault::kTornWrite;
          } else if (fault == "bitflip") {
            options.io_fault = support::CrashSweepOptions::IoFault::kBitFlip;
          } else {
            return usage();
          }
        } else if (arg == "--warm") {
          options.warm_start = true;
        } else if (arg == "--json") {
          json = true;
        } else {
          return usage();
        }
      }
      if (options.frames == 0 || quorum_replicas == 0u) return usage();
      if (options.quorum_kills > 0 && !quorum_replicas.has_value()) {
        return usage();
      }
      return cmd_sweep(argv[2], choice->is_uav, options,
                       quorum_replicas.value_or(1), adaptive, json);
    }
    if (cmd == "fleet") {
      support::FleetMissionOptions options;
      options.samples = 256;
      options.frames = 8;
      options.warmup_frames = 6;
      sim::FleetOptions engine;
      std::string arena_path;
      bool json_stdout = false;
      std::string json_path;
      for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--samples" && i + 1 < argc) {
          parse_number(argv[++i], options.samples);
        } else if (arg == "--frames" && i + 1 < argc) {
          parse_number(argv[++i], options.frames);
        } else if (arg == "--warmup" && i + 1 < argc) {
          parse_number(argv[++i], options.warmup_frames);
        } else if (arg == "--shards" && i + 1 < argc) {
          parse_number(argv[++i], engine.shards);
        } else if (arg == "--threads" && i + 1 < argc) {
          parse_number(argv[++i], engine.threads);
        } else if (arg == "--seed" && i + 1 < argc) {
          parse_number(argv[++i], options.base_seed);
        } else if (arg == "--no-pool") {
          options.pool_systems = false;
        } else if (arg == "--arena" && i + 1 < argc) {
          arena_path = argv[++i];
        } else if (arg == "--json") {
          if (i + 1 < argc && argv[i + 1][0] != '-') {
            json_path = argv[++i];
          } else {
            json_stdout = true;
          }
        } else {
          return usage();
        }
      }
      if (options.samples == 0 || options.frames == 0) return usage();
      return cmd_fleet(argv[2], *choice, options, engine, arena_path,
                       json_stdout, json_path);
    }
    return usage();
  } catch (const BadNumber& e) {
    std::cerr << "arfsctl: " << e.what() << "\n";
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "arfsctl: " << e.what() << "\n";
    return 1;
  }
}
