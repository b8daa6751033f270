// arfs_perfbench — the repo's end-to-end benchmark executable.
//
//   arfs_perfbench --workload fleet_wide|crash_sweep|serve_stream
//                  --seed N --seconds S --trace 0|1
//                  [--spans PATH] [--corrupt-oracle]
//
// Prints one "metric <name> <value> <unit>" line per metric, then, as the
// last line, one JSON object: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
// per-layer ones from a traced run (spans written to --spans at the end).
// Exits 1 when any op fails its check or the run digest differs from the
// oracle's; --corrupt-oracle flips one bit of the oracle digest, so a run
// with it must exit 1 (the gate's self-check). See README.md.
#include <sys/mman.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

std::vector<Tracer::Totals> Tracer::totals() const {
  std::vector<Totals> out(static_cast<std::size_t>(SpanName::kCount_));
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != 0) child_ns[span.parent - 1] += span.end_ns - span.start_ns;
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Totals& t = out[static_cast<std::size_t>(span.name)];
    const std::int64_t ns = span.end_ns - span.start_ns;
    ++t.calls;
    t.ns += ns;
    t.self_ns += ns - child_ns[i];
    t.allocs += span.allocs;
    t.items += span.items;
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "index\tname\tstart_ns\tend_ns\tparent\top\tallocs\titems\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%u\t%llu\t%llu\t%llu\n", i + 1,
                 kSpanNames[static_cast<std::size_t>(s.name)],
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.op),
                 static_cast<unsigned long long>(s.allocs),
                 static_cast<unsigned long long>(s.items));
  }
  return std::fclose(f) == 0;
}

double host_reference_ms() {
  // A fixed multiply-xorshift walk over a 2 MiB buffer: cache-bound like
  // the workloads, so it slows down in the same host phases they do. The
  // buffer is mapped for this call only and faulted in before timing; it
  // bypasses the heap so that none of it stays resident afterwards.
  constexpr std::size_t kBytes = 2u << 20;
  constexpr std::size_t kWords = kBytes / sizeof(std::uint64_t);
  void* mapped = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (mapped == MAP_FAILED) {
    throw std::runtime_error("cannot map the host-reference buffer");
  }
  auto* buffer = static_cast<std::uint64_t*>(mapped);
  std::memset(buffer, 0, kBytes);
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; i < 4'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& word = buffer[x & (kWords - 1)];
    word = word * 0x100000001B3ULL + x;
  }
  const std::int64_t end = now_ns();
  volatile std::uint64_t sink = buffer[x & (kWords - 1)];
  (void)sink;
  ::munmap(mapped, kBytes);
  return static_cast<double>(end - start) / 1e6;
}

namespace {

/// Every per-layer metric, in report order. All workloads report all of
/// them; a layer a workload does not exercise reads 0.
const Metric kPerLayer[] = {
    // fleet_wide
    {"core.run_frame_us", "us", 0},
    {"core.run_frame.allocs", "count", 0},
    {"support.pool.lease_us", "us", 0},
    {"core.restore_us", "us", 0},
    {"core.restore.allocs", "count", 0},
    {"props.check_trace_us", "us", 0},
    {"props.check_trace.allocs", "count", 0},
    {"core.digest_us", "us", 0},
    {"sim.fleet.self_us", "us", 0},
    {"core.reconfigs_per_op", "count", 0},
    // crash_sweep
    {"support.crash_sweep.self_us", "us", 0},
    {"support.factory_us", "us", 0},
    {"support.factory_calls_per_op", "count", 0},
    {"support.simulated_frames_per_op", "count", 0},
    {"core.checkpoint_us", "us", 0},
    {"storage.durable.recover_us", "us", 0},
    {"bus.catch_up_us", "us", 0},
    {"storage.durable.journal_bytes_per_frame", "B", 0},
    {"storage.durable.syncs_per_frame", "count", 0},
    {"storage.durable.forced_syncs_per_frame", "count", 0},
    {"storage.durable.snapshots_per_frame", "count", 0},
    {"bus.ship_bytes_per_frame", "B", 0},
    {"bus.catchup_bytes_per_op", "B", 0},
    {"bus.reseeds", "count", 0},
    {"storage.durable.lost_frames_max", "frames", 0},
    // serve_stream
    {"serve.open_session_us", "us", 0},
    {"serve.open_session.allocs", "count", 0},
    {"serve.pump_us_per_session_frame", "us", 0},
    {"serve.pump.allocs_per_session_frame", "count", 0},
    {"serve.poll_us_per_record", "us", 0},
    {"serve.drain_us", "us", 0},
    {"serve.skipped_frame_share", "share", 0},
    {"support.pool.constructions", "count", 0},
    // every workload
    {"bench.tracing_overhead_share", "share", 0},
    {"host.ref_ms", "ms", 0},
    {"bench.frame_samples", "count", 0},
    {"failed_op_share", "share", 0},
};

}  // namespace

void set_layer(RunResult& result, const std::string& name, double value) {
  for (Metric& m : result.per_layer) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  throw std::logic_error("unknown per-layer metric " + name);
}

void run_harness(const RunConfig& config, Workload& workload, Tracer& tracer,
                 RunResult& result) {
  std::vector<double> setup_s;
  std::vector<double> host_ms;
  // Per-block timings of the untraced blocks, read at kBlockQuantile.
  std::vector<double> ns_per_op;
  std::vector<double> frame_p50_ns;
  std::vector<double> traced_ns_per_op;
  // Every frame of the untraced blocks.
  const auto run_frames = std::make_unique<LatencyHistogram>();
  std::uint64_t ops = 0;
  std::uint64_t allocs = 0;
  double rss = 0.0;
  // Bring the core up to speed before anything is timed: the first
  // passes after process start run measurably slower.
  for (int i = 0; i < 5; ++i) (void)host_reference_ms();
  for (std::size_t seg = 0; seg < kSegments; ++seg) {
    // The host reference runs beside every segment, so a run that landed
    // in a slow host phase shows in host.ref_ms.
    host_ms.push_back(host_reference_ms());
    // The reference's buffer is gone again, but it raised the watermark:
    // restart it, so peak_rss_mib counts the workload's memory only.
    reset_peak_rss();
    tracer.pause(true);
    const std::int64_t setup_start = now_ns();
    workload.setup(seg);
    setup_s.push_back(static_cast<double>(now_ns() - setup_start) / 1e9);
    for (std::size_t b = 0; b < workload.blocks_per_segment(); ++b) {
      // Traced runs alternate traced and untraced blocks: the pairs give
      // the tracing overhead without a second process.
      const bool traced = config.trace && b % 2 == 0;
      tracer.pause(!traced);
      const std::uint64_t allocs_before = thread_allocs();
      const std::int64_t start = now_ns();
      const std::uint64_t n = workload.run_block(seg, b);
      const std::int64_t ns = now_ns() - start;
      allocs += thread_allocs() - allocs_before;
      ops += n;
      workload.after_block(seg, b);
      LatencyHistogram& frames = workload.frames();
      if (!traced && frames.count() > 0) {
        frame_p50_ns.push_back(frames.quantile(0.50));
        run_frames->add(frames);
      }
      frames.clear();
      if (n > 0) {
        (traced ? traced_ns_per_op : ns_per_op)
            .push_back(static_cast<double>(ns) / static_cast<double>(n));
      }
    }
    tracer.pause(true);
    rss = std::max(rss, peak_rss_mib());
    workload.teardown();
  }
  result.attempted = ops;
  result.per_layer.assign(std::begin(kPerLayer), std::end(kPerLayer));

  workload.finish(tracer.totals(), result);

  const double block_ns_per_op = quantile(ns_per_op, kBlockQuantile);
  set_layer(result, "bench.tracing_overhead_share",
            config.trace && !traced_ns_per_op.empty() && block_ns_per_op > 0
                ? quantile(traced_ns_per_op, kBlockQuantile) / block_ns_per_op -
                      1.0
                : 0.0);
  set_layer(result, "host.ref_ms", median(host_ms));
  set_layer(result, "bench.frame_samples",
            static_cast<double>(run_frames->count()));
  set_layer(result, "failed_op_share",
            ops > 0 ? static_cast<double>(result.failed) /
                          static_cast<double>(ops)
                    : 0.0);
  result.end_to_end = {
      {"ops_per_s", "1/s", block_ns_per_op > 0 ? 1e9 / block_ns_per_op : 0.0},
      {"frame_p50_us", "us", quantile(frame_p50_ns, kBlockQuantile) / 1e3},
      {"frame_p99_us", "us", run_frames->quantile(0.99) / 1e3},
      {"setup_s", "s", median(setup_s)},
      {"peak_rss_mib", "MiB", rss},
      {"allocs_per_op", "count",
       ops > 0 ? static_cast<double>(allocs) / static_cast<double>(ops) : 0.0},
  };
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

int usage() {
  std::cerr << "usage: arfs_perfbench --workload fleet_wide|crash_sweep|"
               "serve_stream --seed N --seconds S --trace 0|1 "
               "[--spans PATH] [--corrupt-oracle]\n";
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  const char* end = s + std::strlen(s);
  const auto r = std::from_chars(s, end, out);
  return r.ec == std::errc() && r.ptr == end;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    std::uint64_t v = 0;
    if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], v)) {
      config.seed = v;
      ++i;
    } else if (arg == "--seconds" && has_value && parse_u64(argv[i + 1], v) &&
               v >= 1 && v <= 600) {
      config.seconds = static_cast<int>(v);
      ++i;
    } else if (arg == "--trace" && has_value && parse_u64(argv[i + 1], v) &&
               v <= 1) {
      config.trace = v == 1;
      ++i;
    } else if (arg == "--spans" && has_value) {
      config.spans_path = argv[++i];
    } else if (arg == "--corrupt-oracle") {
      config.corrupt_oracle = true;
    } else {
      return usage();
    }
  }

  Tracer tracer;
  std::unique_ptr<Workload> workload;
  if (config.workload == "fleet_wide") {
    workload = make_fleet_wide(config, tracer);
  } else if (config.workload == "crash_sweep") {
    workload = make_crash_sweep(config, tracer);
  } else if (config.workload == "serve_stream") {
    workload = make_serve_stream(config, tracer);
  } else {
    return usage();
  }

  RunResult result;
  try {
    run_harness(config, *workload, tracer, result);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << config.workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  if (config.trace && !config.spans_path.empty() &&
      !tracer.write(config.spans_path)) {
    std::cerr << "perfbench: cannot write spans to " << config.spans_path
              << "\n";
    return 1;
  }

  const std::vector<Metric>& reported =
      config.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : reported) {
    std::cout << "metric " << m.name << " " << number(m.value) << " "
              << m.unit << "\n";
  }
  if (!config.trace) {
    // The per-layer diagnostics an untraced run measures as well.
    for (const Metric& m : result.per_layer) {
      if (m.name == "host.ref_ms" || m.name == "bench.frame_samples" ||
          m.name == "failed_op_share") {
        std::cout << "metric " << m.name << " " << number(m.value) << " "
                  << m.unit << "\n";
      }
    }
  }
  char digests[96];
  std::snprintf(digests, sizeof(digests), "%016llx oracle %016llx (%s)",
                static_cast<unsigned long long>(result.run_digest),
                static_cast<unsigned long long>(result.oracle_digest),
                result.oracle_recorded ? "recorded" : "recomputed");
  std::cout << "digest " << digests << "\n";
  for (const std::string& p : result.problems) {
    std::cout << "FAILED " << p << "\n";
  }

  std::string json = "{\"correct\": ";
  json += result.correct && result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + reported[i].name + "\": {\"value\": " +
            number(reported[i].value) + ", \"unit\": \"" + reported[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return result.correct && result.failed == 0 ? 0 : 1;
}
