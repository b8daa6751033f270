// Fleet-scale sharded sample engine.
//
// The batch engine (sim::BatchRunner) fans independent *jobs* across a
// thread pool; the fleet engine scales that shape to *populations* —
// millions of Monte-Carlo mission samples — without giving up the repo's
// core invariant: results are bit-identical at any thread count, and now at
// any shard count too.
//
// Structure (modeled on Pregel-style sharded workers):
//   * samples are grouped into fixed-size CHUNKS — the atomic accumulation
//     unit. A chunk is always processed by one worker, samples in ascending
//     index order.
//   * chunks are partitioned into contiguous SHARDS (explicit sharding info:
//     ShardPlan). Each shard owns an outgoing result cache with one slot per
//     chunk, so the sample path touches no shared mutex — a worker finishes
//     a chunk and stores its partial into the chunk's own slot.
//   * the final reduction folds the shard caches in shard order, and each
//     cache's partials in chunk order. Because shards are contiguous chunk
//     ranges, that *is* global chunk order — the exact floating-point
//     addition sequence a serial loop over chunks performs. This is what
//     makes the reduction invariant across thread AND shard counts: the
//     seed of sample i is job_seed(base_seed, i) (a function of the global
//     index alone), and the fold order is a function of the chunk grain
//     alone. Folding shard-locally first would re-associate floating-point
//     sums and break bit-identity — hence per-chunk slots, never running
//     shard totals.
//
// Memory is bounded by the number of chunks (samples / chunk), not the
// number of samples: 10^6 samples stream through ~10^3 small accumulator
// slots rather than materializing per-sample results.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "arfs/common/check.hpp"
#include "arfs/common/types.hpp"
#include "arfs/sim/batch.hpp"
#include "arfs/storage/arena.hpp"

namespace arfs::sim {

/// Rounded integer √n: the shard count balancing per-shard cache
/// contiguity against merge fan-in for the fleet engine. Integer
/// arithmetic — the auto-tune must be bit-stable across platforms.
[[nodiscard]] Cycle auto_stride(Cycle n);

/// Samples per chunk — the fleet's atomic accumulation unit. The default
/// matches the dependability estimator's historical trial chunk, so the
/// fleet path reproduces the serial estimate bit for bit.
inline constexpr std::size_t kFleetChunk = 1024;

struct FleetOptions {
  /// Worker count including the calling thread; 0 = ARFS_THREADS /
  /// hardware_concurrency (BatchOptions semantics).
  std::size_t threads = 0;
  /// Shard count; 0 auto-tunes to ~√chunks (clamped to [1, chunks]).
  /// Sharding affects accumulator locality only, never results.
  std::size_t shards = 0;
  /// Samples per chunk. Changing it changes the floating-point reduce
  /// order (a different estimate, equally valid); for any fixed chunk the
  /// result is invariant across threads and shards.
  std::size_t chunk = kFleetChunk;
  /// When set, the evidence-producing layers (dependability evidence rows
  /// and pooled-mission evidence) route materialized per-sample results
  /// through this arena instead of heap vectors — RSS bounded by in-flight
  /// chunks.
  /// Storage choice only: every digest stays bit-identical to the in-RAM
  /// path. Not owned; must outlive the runner's calls.
  storage::MappedArena* arena = nullptr;
};

/// Identity of one sample in a fleet run. The seed depends on the global
/// index alone — never on the shard, chunk, worker, or their counts.
struct FleetSample {
  std::size_t index = 0;   ///< Global 0-based sample index.
  std::uint64_t seed = 0;  ///< job_seed(base_seed, index).
  std::size_t shard = 0;   ///< Owning shard (accumulator locality only).
};

/// Explicit sharding info: how `samples` samples decompose into fixed-size
/// chunks and how chunks partition into contiguous, balanced shards.
class ShardPlan {
 public:
  /// `shards_requested` 0 auto-tunes to ~√chunks; any request is clamped to
  /// [1, chunks] (never more shards than chunks, never zero).
  static ShardPlan make(std::size_t samples, std::size_t chunk,
                        std::size_t shards_requested);

  [[nodiscard]] std::size_t samples() const { return samples_; }
  [[nodiscard]] std::size_t chunk() const { return chunk_; }
  [[nodiscard]] std::size_t chunks() const { return chunks_; }
  [[nodiscard]] std::size_t shards() const { return shards_; }

  struct Range {
    std::size_t first = 0;
    std::size_t end = 0;
    [[nodiscard]] std::size_t size() const { return end - first; }
  };

  /// Sample indices of chunk `c`: [c·chunk, min((c+1)·chunk, samples)).
  [[nodiscard]] Range samples_of_chunk(std::size_t c) const;
  /// Chunk indices shard `s` owns (contiguous, sizes differ by at most 1).
  [[nodiscard]] Range chunks_of_shard(std::size_t s) const;
  /// Owning shard of chunk `c`.
  [[nodiscard]] std::size_t shard_of_chunk(std::size_t c) const;

 private:
  std::size_t samples_ = 0;
  std::size_t chunk_ = kFleetChunk;
  std::size_t chunks_ = 0;
  std::size_t shards_ = 1;
};

/// Streams the rows a FleetRunner materialized into arena regions, in
/// global chunk order — the same order the in-RAM map() concatenates, so
/// any fold over the cursor is bit-identical to the in-RAM path. Each
/// chunk's region is read (CRC-verified), visited, then released: the
/// consumer's RSS is one chunk, regardless of total rows.
template <typename R>
class ArenaCursor {
 public:
  ArenaCursor() = default;
  ArenaCursor(storage::MappedArena& arena, ShardPlan plan,
              std::vector<storage::MappedArena::RegionId> regions)
      : arena_(&arena), plan_(plan), regions_(std::move(regions)) {}

  [[nodiscard]] std::size_t size() const { return plan_.samples(); }
  [[nodiscard]] std::size_t chunks() const { return regions_.size(); }
  [[nodiscard]] const ShardPlan& plan() const { return plan_; }
  [[nodiscard]] storage::MappedArena* arena() const { return arena_; }

  /// One-shot pass over every chunk in global chunk order:
  /// `fn(rows, count, first_global_index)`. Releases each region after its
  /// visit — rows must be consumed inside the callback.
  template <typename Fn>
  void for_each_chunk(Fn&& fn) {
    require(!consumed_, "ArenaCursor: already consumed");
    consumed_ = true;
    for (std::size_t c = 0; c < regions_.size(); ++c) {
      const ShardPlan::Range r = plan_.samples_of_chunk(c);
      std::size_t bytes = 0;
      const std::uint8_t* raw = arena_->read(regions_[c], &bytes);
      ensure(bytes == r.size() * sizeof(R), "arena chunk size mismatch");
      // The rows were written in place as R objects; R is trivially
      // copyable, so reading through a memcpy'd buffer would be equally
      // valid — the in-place view avoids the copy.
      fn(reinterpret_cast<const R*>(raw), r.size(), r.first);
      arena_->release(regions_[c]);
    }
  }

 private:
  storage::MappedArena* arena_ = nullptr;
  ShardPlan plan_;
  std::vector<storage::MappedArena::RegionId> regions_;
  bool consumed_ = false;
};

/// The sharded fleet engine. Thin deterministic orchestration over a
/// BatchRunner: chunks are the schedulable jobs, shards are the accumulator
/// partitions, and every template below reduces in global chunk order.
class FleetRunner {
 public:
  explicit FleetRunner(FleetOptions options = {})
      : options_(options),
        batch_(BatchOptions{options.threads, /*chunk=*/0}) {}

  [[nodiscard]] std::size_t thread_count() const {
    return batch_.thread_count();
  }
  [[nodiscard]] const FleetOptions& options() const { return options_; }

  /// Sharding info for a streamed run of `samples` samples at the
  /// configured chunk grain.
  [[nodiscard]] ShardPlan plan(std::size_t samples) const {
    return ShardPlan::make(samples, options_.chunk, options_.shards);
  }
  /// Sharding info for `jobs` heavyweight jobs: chunk grain 1, so every
  /// job schedules independently (mission sweeps, per-config analyses).
  [[nodiscard]] ShardPlan job_plan(std::size_t jobs) const {
    return ShardPlan::make(jobs, /*chunk=*/1, options_.shards);
  }

  /// The underlying batch runner, for callers that want plain job fan-out
  /// with the fleet's thread budget.
  [[nodiscard]] BatchRunner& batch() { return batch_; }

  /// Low-level: runs `fn(chunk, shard, first_sample, end_sample)` once per
  /// chunk of `p`, fanned across the pool. Blocks until done.
  void run_plan(const ShardPlan& p,
                const std::function<void(std::size_t, std::size_t,
                                         std::size_t, std::size_t)>& fn) {
    batch_.run(p.chunks(), [&](std::size_t c) {
      const ShardPlan::Range r = p.samples_of_chunk(c);
      fn(c, p.shard_of_chunk(c), r.first, r.end);
    });
  }

  /// Streams `samples` samples into an accumulator. `consume(sample, acc)`
  /// folds one sample into its chunk's accumulator (default-constructed per
  /// chunk; chunk-local scratch state may live in Acc — it is dropped by
  /// `fold`). Chunk partials land in shard-local caches and are folded in
  /// global chunk order: the result is bit-identical at any thread count
  /// and any shard count, and equals the serial loop
  ///   for each chunk c: { Acc a; consume each sample; fold(total, a); }
  template <typename Acc>
  [[nodiscard]] Acc reduce(
      std::size_t samples, std::uint64_t base_seed,
      const std::function<void(const FleetSample&, Acc&)>& consume,
      const std::function<void(Acc&, Acc&)>& fold) {
    const ShardPlan p = plan(samples);
    // Per-shard outgoing caches, one slot per owned chunk. Slots are
    // written lock-free: each chunk is one job and owns its slot.
    std::vector<std::vector<std::optional<Acc>>> caches(p.shards());
    for (std::size_t s = 0; s < p.shards(); ++s) {
      caches[s].resize(p.chunks_of_shard(s).size());
    }
    run_plan(p, [&](std::size_t c, std::size_t shard, std::size_t first,
                    std::size_t end) {
      Acc acc{};
      for (std::size_t i = first; i < end; ++i) {
        consume(FleetSample{i, job_seed(base_seed, i), shard}, acc);
      }
      caches[shard][c - p.chunks_of_shard(shard).first].emplace(
          std::move(acc));
    });
    // Deterministic shard-ordered merge. Shards own contiguous chunk
    // ranges, so shard order == global chunk order — the serial fold.
    Acc total{};
    for (std::vector<std::optional<Acc>>& cache : caches) {
      for (std::optional<Acc>& slot : cache) fold(total, *slot);
    }
    return total;
  }

  /// Runs `jobs` heavyweight jobs (one chunk each) and materializes their
  /// results in job order — the fleet-path counterpart of
  /// BatchRunner::map, with shard-local result caches concatenated in
  /// shard order (== job order, shards being contiguous).
  template <typename R>
  [[nodiscard]] std::vector<R> map(
      std::size_t jobs, std::uint64_t base_seed,
      const std::function<R(const FleetSample&)>& fn) {
    const ShardPlan p = job_plan(jobs);
    std::vector<std::vector<std::optional<R>>> caches(p.shards());
    for (std::size_t s = 0; s < p.shards(); ++s) {
      caches[s].resize(p.chunks_of_shard(s).size());
    }
    run_plan(p, [&](std::size_t c, std::size_t shard, std::size_t first,
                    std::size_t end) {
      for (std::size_t i = first; i < end; ++i) {
        caches[shard][c - p.chunks_of_shard(shard).first].emplace(
            fn(FleetSample{i, job_seed(base_seed, i), shard}));
      }
    });
    std::vector<R> out;
    out.reserve(jobs);
    for (std::vector<std::optional<R>>& cache : caches) {
      for (std::optional<R>& slot : cache) out.push_back(std::move(*slot));
    }
    return out;
  }

  /// Arena-backed materialization: like a map() over `samples` samples at
  /// the chunk grain, but each chunk's rows are written straight into an
  /// arena region (one region per chunk, written lock-free by the owning
  /// worker, sealed on completion — sealed chunks leave the RSS under the
  /// arena's SyncPolicy batching). Returns a cursor streaming the rows in
  /// global chunk order; peak RSS is bounded by *in-flight* chunks, not
  /// `samples`. Results are bit-identical to the in-RAM path: same seeds
  /// (global index only), same rows, same order.
  template <typename R>
  [[nodiscard]] ArenaCursor<R> materialize(
      std::size_t samples, std::uint64_t base_seed,
      const std::function<R(const FleetSample&)>& fn,
      storage::MappedArena& arena) {
    static_assert(std::is_trivially_copyable_v<R>,
                  "arena rows are raw bytes: R must be trivially copyable");
    static_assert(alignof(R) <= 8,
                  "arena chunks are 8-byte aligned: alignof(R) must be <= 8");
    const ShardPlan p = plan(samples);
    // One region slot per chunk, written lock-free (slot discipline as in
    // reduce(): a chunk is one job and owns its slot).
    std::vector<storage::MappedArena::RegionId> regions(
        p.chunks(), storage::MappedArena::kNoRegion);
    run_plan(p, [&](std::size_t c, std::size_t shard, std::size_t first,
                    std::size_t end) {
      const storage::MappedArena::RegionId rid =
          arena.allocate((end - first) * sizeof(R));
      R* out = reinterpret_cast<R*>(arena.data(rid));
      for (std::size_t i = first; i < end; ++i) {
        const R row = fn(FleetSample{i, job_seed(base_seed, i), shard});
        std::memcpy(out + (i - first), &row, sizeof(R));
      }
      arena.seal(rid);
      regions[c] = rid;
    });
    return ArenaCursor<R>(arena, p, std::move(regions));
  }

 private:
  FleetOptions options_;
  BatchRunner batch_;
};

}  // namespace arfs::sim
