// Exact heap-allocation counts of the steady-state frame.
//
// This executable replaces the global allocation operators with a
// thread-local counter (the same scheme perfbench uses), so every check
// counts exactly the allocations its own thread makes between two reads —
// no timing, no noise. Each system check starts after a 16-frame warm-up
// and runs frames with no fault or environment events:
//  * a 32-app chain frame with record_trace off allocates nothing;
//  * with the trace on, each frame allocates only its trace row (the row's
//    app vector and environment copy) plus the trace's amortized growth;
//  * rewinding the warm system to a checkpoint allocates nothing;
//  * Expected<T>::value() on a held value allocates nothing;
//  * after one warm-up digest, System::digest() allocates nothing on a
//    volatile 32-app chain (trace on and off), a durable 2-app chain and
//    the same chain shipping to a 3-member quorum cohort;
//  * a frame that consumes one environment-change event makes exactly the
//    recorded number of allocations.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "arfs/common/expected.hpp"
#include "arfs/core/system.hpp"
#include "arfs/sim/fault_plan.hpp"
#include "arfs/storage/durable/engine.hpp"
#include "arfs/support/simple_app.hpp"
#include "arfs/support/synthetic.hpp"

namespace {

thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_allocs;
  const std::size_t a = static_cast<std::size_t>(align);
  if (size == 0) size = a;
  void* p = nullptr;
  if (::posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a, size) ==
      0) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace arfs {
namespace {

constexpr Cycle kWarmupFrames = 16;
constexpr Cycle kMeasuredFrames = 64;
/// Allocations of the first 32-app frame that consumes an environment
/// change: the environment's history vector and the frame's reused signal
/// buffer each grow for the first time. The fault plan hands out its
/// events as a span and the monitor's sample is an optional, so neither
/// allocates.
constexpr std::uint64_t kEnvChangeFrameAllocs = 2;

/// The 32-app chain system (4 configurations, recovery edges), warmed up.
struct ChainSystem {
  core::ReconfigSpec spec;
  std::unique_ptr<core::System> system;

  explicit ChainSystem(bool record_trace) {
    support::ChainSpecParams params;
    params.configs = 4;
    params.apps = 32;
    params.with_recovery_edges = true;
    spec = support::make_chain_spec(params);
    core::SystemOptions options;
    options.record_trace = record_trace;
    system = std::make_unique<core::System>(spec, options);
    for (const core::AppDecl& decl : spec.apps()) {
      system->add_app(
          std::make_unique<support::SimpleApp>(decl.id, decl.name));
    }
    system->run(kWarmupFrames);
  }
};

/// Allocations made by `n` frames.
std::uint64_t frame_allocs(core::System& system, Cycle n) {
  const std::uint64_t before = t_allocs;
  system.run(n);
  return t_allocs - before;
}

TEST(FrameAlloc, SteadyFrameWithoutTraceAllocatesNothing) {
  ChainSystem chain(/*record_trace=*/false);
  for (Cycle f = 0; f < kMeasuredFrames; ++f) {
    EXPECT_EQ(frame_allocs(*chain.system, 1), 0u) << "frame " << f;
  }
  EXPECT_EQ(chain.system->scram().stats().triggers_received, 0u);
}

TEST(FrameAlloc, SteadyFrameWithTraceAllocatesOnlyItsRow) {
  ChainSystem chain(/*record_trace=*/true);
  const std::uint64_t total = frame_allocs(*chain.system, kMeasuredFrames);
  const double per_frame =
      static_cast<double>(total) / static_cast<double>(kMeasuredFrames);
  EXPECT_LE(per_frame, 2.1) << total << " allocations in "
                            << kMeasuredFrames << " frames";
  EXPECT_EQ(chain.system->trace().size(), kWarmupFrames + kMeasuredFrames);
}

TEST(FrameAlloc, RestoringAWarmCheckpointAllocatesNothing) {
  ChainSystem chain(/*record_trace=*/true);
  const core::SystemCheckpoint warm = chain.system->checkpoint();
  const std::uint64_t digest = chain.system->digest();
  for (int round = 0; round < 3; ++round) {
    chain.system->run(kMeasuredFrames);
    const std::uint64_t before = t_allocs;
    chain.system->restore(warm);
    EXPECT_EQ(t_allocs - before, 0u) << "round " << round;
    EXPECT_EQ(chain.system->digest(), digest);
  }
}

/// Allocations made by one digest of `system`.
std::uint64_t digest_allocs(const core::System& system) {
  const std::uint64_t before = t_allocs;
  const std::uint64_t digest = system.digest();
  const std::uint64_t allocs = t_allocs - before;
  EXPECT_NE(digest, 0u);
  return allocs;
}

/// A 2-app chain on durable storage (`frames(4)` group commit, a snapshot
/// every 16 epochs), optionally shipping to a quorum cohort, after 512
/// frames.
std::unique_ptr<core::System> durable_chain(const core::ReconfigSpec& spec,
                                            std::uint32_t cohort) {
  core::SystemOptions options;
  options.record_trace = false;
  options.durable_storage = true;
  options.durability.sync = storage::durable::SyncPolicy::frames(4);
  options.durability.snapshot_every_epochs = 16;
  if (cohort > 0) {
    options.journal_shipping = true;
    options.quorum_replicas = cohort;
  }
  auto system = std::make_unique<core::System>(spec, options);
  for (const core::AppDecl& decl : spec.apps()) {
    system->add_app(std::make_unique<support::SimpleApp>(decl.id, decl.name));
  }
  system->run(512);
  return system;
}

TEST(FrameAlloc, DigestAllocatesNothing) {
  for (const bool record_trace : {false, true}) {
    ChainSystem chain(record_trace);
    (void)digest_allocs(*chain.system);  // warm-up: grows the word buffer
    EXPECT_EQ(digest_allocs(*chain.system), 0u) << "trace " << record_trace;
    EXPECT_EQ(chain.system->digest(), chain.system->checkpoint().digest());
  }

  const core::ReconfigSpec spec = support::make_chain_spec({});
  for (const std::uint32_t cohort : {0u, 3u}) {
    const std::unique_ptr<core::System> system = durable_chain(spec, cohort);
    (void)digest_allocs(*system);
    EXPECT_EQ(digest_allocs(*system), 0u) << "cohort " << cohort;
    EXPECT_EQ(system->digest(), system->checkpoint().digest());
  }
}

TEST(FrameAlloc, EnvChangeFrameMakesTheRecordedAllocations) {
  ChainSystem chain(/*record_trace=*/false);
  const Cycle next = chain.system->clock().current_frame();
  sim::FaultPlan plan;
  plan.change_environment(
      static_cast<SimTime>(next) * core::SystemOptions{}.frame_length,
      support::kChainSeverityFactor, 1);
  chain.system->set_fault_plan(std::move(plan));
  EXPECT_EQ(frame_allocs(*chain.system, 1), kEnvChangeFrameAllocs);
  EXPECT_EQ(chain.system->stats().fault_events_applied, 1u);
  EXPECT_EQ(chain.system->scram().stats().triggers_received, 1u);
}

TEST(FrameAlloc, ExpectedValueOnAHeldValueAllocatesNothing) {
  const Expected<int> held = 42;
  Expected<int> mutable_held = 7;
  const std::uint64_t before = t_allocs;
  int sum = 0;
  for (int i = 0; i < 100; ++i) sum += held.value() + mutable_held.value();
  EXPECT_EQ(t_allocs - before, 0u);
  EXPECT_EQ(sum, 4900);
}

}  // namespace
}  // namespace arfs
