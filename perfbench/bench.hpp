// Shared machinery of the end-to-end benchmark: clocks, the driving-thread
// allocation counter, the span tracer, the frame-latency histogram, the run
// digest, and the per-run result every workload fills in.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Heap allocations (every operator new) made so far by the calling thread.
/// Thread-local, so worker threads never leak into the driving thread's
/// count (alloc_count.cpp replaces the global operators).
[[nodiscard]] std::uint64_t thread_allocs();

/// Peak resident set size of the process since start or the last
/// reset_peak_rss(), in MiB (VmHWM).
[[nodiscard]] double peak_rss_mib();

/// Restarts the peak-RSS watermark at the current RSS (writes "5" to
/// /proc/self/clear_refs); throws where the kernel does not support it.
void reset_peak_rss();

inline constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/// FNV-1a over the eight little-endian bytes of `v` — the same mix the
/// library's fleet and crash-sweep reports use.
inline void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFFu;
    h *= 0x100000001B3ULL;
  }
}

/// Spans are named by layer-qualified ids; kSpanNames gives their printed
/// form.
enum class SpanName : std::uint16_t {
  kOp,                 // one whole op (root of its children)
  kFleetReduce,        // sim::FleetRunner::reduce over a block of ops
  kPoolLease,          // support::SystemPool::lease
  kRestore,            // core::System::restore (via PooledMission::reset)
  kPlan,               // support::PlanFactory call + System::set_fault_plan
  kRunFrame,           // core::System::run_frame
  kCheckTrace,         // props::check_trace
  kDigest,             // core::System::digest
  kCrashSweep,         // support::run_crash_sweep
  kFactory,            // support::MissionFactory callback
  kCheckpoint,         // core::System::checkpoint
  kRecover,            // failstop::Processor::fail -> durable recovery
  kCatchUp,            // core::System::ship_catch_up
  kOpenSession,        // serve::SimServer::open_session
  kPump,               // serve::SimServer::pump
  kDrain,              // serve::SimServer::drain
  kPoll,               // serve::SessionClient::poll
  kCount_,
};

inline constexpr const char* kSpanNames[] = {
    "op",           "sim.fleet.reduce", "support.pool.lease",
    "core.restore", "support.plan",     "core.run_frame",
    "props.check_trace", "core.digest", "support.crash_sweep",
    "support.factory",   "core.checkpoint", "storage.durable.recover",
    "bus.catch_up",      "serve.open_session", "serve.pump",
    "serve.drain",       "serve.poll",
};
static_assert(sizeof(kSpanNames) / sizeof(kSpanNames[0]) ==
              static_cast<std::size_t>(SpanName::kCount_));

/// One timed call into a layer, recorded from the benchmark's side.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;      ///< Id of the op the span belongs to.
  std::uint64_t allocs = 0;  ///< Driving-thread allocations inside it.
  std::uint32_t parent = 0;  ///< Index + 1 of the causing span; 0 = root.
  SpanName name = SpanName::kOp;
  std::uint64_t items = 0;   ///< Work the call did (frames, records, ...).
};

/// In-memory span recorder for the driving thread. Disabled, every call is
/// one predictable branch; enabled, spans append to a vector that is only
/// written out when the run ends.
class Tracer {
 public:
  void enable(std::size_t reserve) {
    on_ = true;
    spans_.reserve(reserve);
    stack_.reserve(16);
  }
  void pause(bool paused) { paused_ = paused; }
  [[nodiscard]] bool active() const { return on_ && !paused_; }
  void set_op(std::uint64_t op) { op_ = op; }

  /// RAII span: opened at construction, closed at destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, SpanName name) : tracer_(tracer) {
      if (tracer_.active()) index_ = tracer_.open(name);
    }
    ~Scope() {
      if (index_ != 0) tracer_.close(index_, items_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Records how much work the call did (read by per-item metrics).
    void items(std::uint64_t n) { items_ = n; }

   private:
    Tracer& tracer_;
    std::uint32_t index_ = 0;  // index + 1; 0 = not recording
    std::uint64_t items_ = 0;
  };

  /// Per-name totals over every recorded span.
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t ns = 0;       ///< Wall time inside the spans.
    std::int64_t self_ns = 0;  ///< Minus the time child spans cover.
    std::uint64_t allocs = 0;
    std::uint64_t items = 0;
  };
  [[nodiscard]] std::vector<Totals> totals() const;

  /// Writes every span as one tab-separated line; returns false on I/O
  /// failure.
  bool write(const std::string& path) const;

 private:
  std::uint32_t open(SpanName name) {
    Span span;
    span.name = name;
    span.op = op_;
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.allocs = thread_allocs();
    spans_.push_back(span);
    const auto index = static_cast<std::uint32_t>(spans_.size());
    stack_.push_back(index);
    spans_.back().start_ns = now_ns();
    return index;
  }
  void close(std::uint32_t index, std::uint64_t items) {
    const std::int64_t end = now_ns();
    Span& span = spans_[index - 1];
    span.end_ns = end;
    span.allocs = thread_allocs() - span.allocs;
    span.items = items;
    stack_.pop_back();
  }

  bool on_ = false;
  bool paused_ = false;
  std::uint64_t op_ = 0;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// Frame latencies in ns as a fixed-size log-linear histogram: one bucket
/// per ns below 1024 ns, then 512 buckets per octave, so a reported quantile
/// is within 0.1% of the exact sample's. Recording never allocates, and its
/// 96 KiB do not grow with the run length, so neither allocs_per_op nor
/// peak_rss_mib sees it.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) {
    ++counts_[bucket(std::min<std::uint64_t>(ns, kMaxNs))];
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  void add(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  void clear() {
    counts_.fill(0);
    count_ = 0;
  }

  /// Nearest-rank quantile, q in [0, 1]: the midpoint of the bucket that
  /// holds the sample of rank ceil(q * count).
  [[nodiscard]] double quantile(double q) const {
    if (count_ == 0) return 0.0;
    const double rank = std::clamp(
        std::ceil(q * static_cast<double>(count_)), 1.0,
        static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (static_cast<double>(seen) >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

 private:
  static constexpr int kSubBits = 9;  // 512 sub-buckets per octave
  static constexpr std::uint64_t kMaxNs = 0xFFFFFFFFULL;
  // 1024 exact buckets, then 512 for each octave [2^k, 2^(k+1)), k = 10..31.
  static constexpr std::size_t kBuckets = (2 + 31 - kSubBits) << kSubBits;

  static std::size_t bucket(std::uint64_t ns) {
    if (ns < (2u << kSubBits)) return static_cast<std::size_t>(ns);
    const int shift = std::bit_width(ns) - 1 - kSubBits;
    return (static_cast<std::size_t>(shift) << kSubBits) +
           static_cast<std::size_t>(ns >> shift);
  }
  static double midpoint(std::size_t i) {
    if (i < (2u << kSubBits)) return static_cast<double>(i);
    const int shift = static_cast<int>(i >> kSubBits) - 1;
    const std::uint64_t low = (i - (static_cast<std::size_t>(shift)
                                    << kSubBits))
                              << shift;
    return static_cast<double>(low) +
           static_cast<double>((std::uint64_t{1} << shift) - 1) / 2.0;
  }

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
};

/// Quantile q in [0, 1] of `v`, interpolating between order statistics.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Where in its blocks' spread a run reads ops_per_s and frame_p50_us: the
/// 95th percentile of per-block time, which 19 blocks in 20 stay within.
/// The shared host swings between speed phases up to about 1.5x apart that
/// last seconds to minutes. The share of a run that lands in fast phases
/// varies from run to run, so a whole-run total or median wanders with it;
/// slow phases come up in nearly every run, so the level 19 blocks in 20
/// reach wanders least. frame_p99_us is read over all of a run's frames:
/// its top 1% already comes from the slow phases.
inline constexpr double kBlockQuantile = 0.95;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;          ///< Every check held, run digest == oracle.
  std::uint64_t attempted = 0;  ///< Timed ops attempted.
  std::uint64_t failed = 0;     ///< Timed ops that failed their check.
  std::uint64_t run_digest = 0;
  std::uint64_t oracle_digest = 0;
  bool oracle_recorded = false;  ///< Oracle came from the recorded table.
  std::vector<std::string> problems;  ///< Human-readable failure reasons.
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

/// Run parameters every workload receives.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 20;
  bool trace = false;
  /// Self-check: perturb the oracle digest so the gate must trip.
  bool corrupt_oracle = false;
  std::string spans_path;  ///< Where a traced run writes its spans.
};

/// Host-speed reference: a fixed integer kernel over a 2 MiB working set
/// (no library code). Returns its wall time in milliseconds.
[[nodiscard]] double host_reference_ms();

/// Set-ups per run. They are spread over the run, so setup_s is the median
/// of set-ups taken at different moments, not one short interval.
inline constexpr std::size_t kSegments = 9;

/// One workload as the harness drives it. The run is kSegments set-ups
/// spread over the run, each followed by its timed blocks of ops. A block
/// holds a fixed op count, 40 to 200 ms of work, so the work done never
/// depends on host speed and a block is short beside a host phase.
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t blocks_per_segment() const = 0;
  /// Builds a fresh context (spec, systems, pool or server) for `segment`
  /// and runs its untimed warm-up pass.
  virtual void setup(std::size_t segment) = 0;
  /// Runs one timed block; returns the ops it attempted.
  virtual std::uint64_t run_block(std::size_t segment, std::size_t block) = 0;
  /// Untimed work after a block (the crash-sweep replay).
  virtual void after_block(std::size_t /*segment*/, std::size_t /*block*/) {}
  /// Untimed end of a segment: finishes in-flight ops and releases the
  /// context, so no set-up pays for tearing down the previous one.
  virtual void teardown() = 0;
  /// The block's frame latencies: recorded inside the timed block or, for
  /// crash_sweep, in after_block; read and cleared after each block.
  [[nodiscard]] virtual LatencyHistogram& frames() = 0;
  /// After the timed phase: op verdicts, digest gate, per-layer metrics.
  virtual void finish(const std::vector<Tracer::Totals>& totals,
                      RunResult& result) = 0;
};

[[nodiscard]] inline double per_call_us(const Tracer::Totals& t) {
  return t.calls > 0 ? static_cast<double>(t.ns) / 1e3 /
                           static_cast<double>(t.calls)
                     : 0.0;
}
[[nodiscard]] inline double per_call_allocs(const Tracer::Totals& t) {
  return t.calls > 0 ? static_cast<double>(t.allocs) /
                           static_cast<double>(t.calls)
                     : 0.0;
}

/// Sets per-layer metric `name` (one of kPerLayer in main.cpp; throws on an
/// unknown name). Metrics a workload never sets read 0: its ops do not
/// exercise that layer.
void set_layer(RunResult& result, const std::string& name, double value);

/// Worker threads the untimed oracle recomputation may use.
inline constexpr std::size_t kOracleThreads = 3;

/// Drives `workload` through its segments and blocks and fills every
/// end-to-end metric (and the harness-owned per-layer ones).
void run_harness(const RunConfig& config, Workload& workload, Tracer& tracer,
                 RunResult& result);

/// Compares the run digest with the oracle's. `recorded` holds the oracle
/// digest for the default seed and run length (0 = none recorded);
/// `recompute` recomputes it through the library's oracle path.
template <typename Recompute>
void gate_digest(const RunConfig& config, std::uint64_t recorded,
                 Recompute&& recompute, RunResult& result) {
  if (recorded != 0) {
    result.oracle_digest = recorded;
    result.oracle_recorded = true;
  } else {
    result.oracle_digest = recompute();
  }
  if (config.corrupt_oracle) result.oracle_digest ^= 1;
  if (result.run_digest != result.oracle_digest) {
    result.correct = false;
    result.problems.push_back("run digest differs from the oracle digest");
  }
}

// Workload factories.
[[nodiscard]] std::unique_ptr<Workload> make_fleet_wide(
    const RunConfig& config, Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_crash_sweep(
    const RunConfig& config, Tracer& tracer);
[[nodiscard]] std::unique_ptr<Workload> make_serve_stream(
    const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
