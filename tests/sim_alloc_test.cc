// Allocation audit for the simulator hot path. The slot arena plus the
// small-buffer-optimized callback storage promise that a warm simulator
// performs ZERO heap allocations per schedule→fire cycle as long as the
// capture fits Simulator::kInlineCallbackBytes. The runtime builds on it:
// a warm stencil job delivers and executes messages without allocating,
// and a warm Mol3D job allocates only the payloads it sends.
// This binary replaces the global allocator with a counting shim and pins
// both promises. It is the only check of them: docs/static-analysis.md
// lists which case runs which warm-path function.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstdint>
#include <functional>
#include <new>
#include <optional>
#include <vector>

#include "apps/jacobi2d.h"
#include "apps/mol3d.h"
#include "lb/null_lb.h"
#include "runtime/job.h"
#include "runtime/network.h"
#include "runtime/observer.h"
#include "runtime/sharded_runtime.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "util/offload.h"
#include "util/thread_pool.h"
#include "util/validate.h"
#include "vm/virtual_machine.h"

namespace {

std::atomic<std::size_t> g_news{0};
std::atomic<bool> g_armed{false};

void probe_arm() {
  g_news.store(0, std::memory_order_relaxed);
  g_armed.store(true, std::memory_order_relaxed);
}

std::size_t probe_disarm() {
  g_armed.store(false, std::memory_order_relaxed);
  return g_news.load(std::memory_order_relaxed);
}

}  // namespace

// Replacement global allocator: malloc-backed, counts while armed. Both
// new forms and all delete forms are replaced together, so every pointer
// freed here came from the std::malloc above — GCC cannot see that pairing
// across the replaced operators, hence the diagnostic suppression.
void* operator new(std::size_t size) {
  if (g_armed.load(std::memory_order_relaxed))
    g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* operator new[](std::size_t size) { return ::operator new(size); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace cloudlb {
namespace {

constexpr int kBatch = 256;

void warm_up(Simulator& sim) {
  // Grow the slot arena and the event heap to their steady-state
  // capacity so the measured region never resizes a vector.
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kBatch; ++i)
      sim.schedule_after(SimTime::nanos(i + 1), [] {});
    sim.run();
  }
}

TEST(SimAllocTest, WarmScheduleFireLoopIsAllocationFree) {
  Simulator sim;
  warm_up(sim);

  std::uint64_t fired = 0;
  probe_arm();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < kBatch; ++i)
      sim.schedule_after(SimTime::nanos(i + 1), [&fired] { ++fired; });
    while (sim.step()) {
    }
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 50u * kBatch);
}

TEST(SimAllocTest, ReservePresizesTheColdEngine) {
  // reserve(events, slots) replaces the warm-up loop: a *cold* engine
  // that was presized schedules its first full batch without touching
  // the allocator. This is the hint run_scenario_with() issues at setup.
  Simulator sim;
  sim.reserve(kBatch, kBatch);

  std::uint64_t fired = 0;
  probe_arm();
  for (int i = 0; i < kBatch; ++i)
    sim.schedule_after(SimTime::nanos(i + 1), [&fired] { ++fired; });
  while (sim.step()) {
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBatch));
}

TEST(SimAllocTest, FatInlineCaptureStaysAllocationFree) {
  // The widest capture the runtime schedules is message delivery's
  // {this, Message}: 56 bytes (job.cc static_asserts that it fits). A
  // same-size synthetic capture must still ride inline.
  struct Payload {
    std::uint64_t words[6];  // 48 bytes + the 8-byte sink reference = 56
  };
  Simulator sim;
  warm_up(sim);

  std::uint64_t sink = 0;
  probe_arm();
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < kBatch; ++i) {
      Payload p{};
      p.words[0] = static_cast<std::uint64_t>(i);
      sim.schedule_after(SimTime::nanos(i + 1),
                         [&sink, p] { sink += p.words[0]; });
    }
    while (sim.step()) {
    }
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink, 50u * (kBatch * (kBatch - 1) / 2));
}

TEST(SimAllocTest, ScheduleCancelChurnIsAllocationFree) {
  // The zero-allocation promise covers the production configuration:
  // compaction auto-runs validate_integrity() when validation is on, and
  // the validator's O(slots) scratch is an accepted cost of validated
  // builds, not a warm-path regression.
  ValidationScope validation{false};
  Simulator sim;
  warm_up(sim);

  probe_arm();
  EventHandle armed;
  for (int i = 0; i < 10'000; ++i) {
    // Inside the allocation-probe window: discard instead of asserting
    // so the check machinery cannot perturb the count being measured.
    if (armed.valid()) static_cast<void>(sim.cancel(armed));
    armed = sim.schedule_after(SimTime::seconds(100), [] {});
  }
  const std::size_t allocs = probe_disarm();
  // Compaction passes shrink in place (std::erase_if) and the freed slot
  // is recycled immediately, so re-arming a timer never allocates.
  EXPECT_EQ(allocs, 0u);
  EXPECT_TRUE(sim.cancel(armed));
  sim.run();
}

TEST(SimAllocTest, LaneCancelChurnIsAllocationFree) {
  // Cancellation inside the current-instant lane. Each round fills the
  // lane with kBatch zero-delay events twice: the first time it cancels
  // every other one, which stays under the compaction threshold, so the
  // stale entries are shed one by one as the lane drains; the second
  // time it cancels one more than half, so compaction runs while the
  // lane still holds live entries.
  ValidationScope validation{false};
  Simulator sim;
  std::vector<EventHandle> handles;
  handles.reserve(kBatch);
  std::uint64_t fired = 0;
  std::size_t held_after_compaction = 0;
  const auto fill_lane = [&] {
    handles.clear();
    for (int i = 0; i < kBatch; ++i)
      handles.push_back(
          sim.schedule_after(SimTime::zero(), [&fired] { ++fired; }));
  };
  const auto round = [&] {
    sim.schedule_after(SimTime::nanos(1), [&] {
      fill_lane();
      for (int i = 0; i < kBatch; i += 2)
        static_cast<void>(sim.cancel(handles[static_cast<std::size_t>(i)]));
    });
    sim.schedule_after(SimTime::nanos(2), [&] {
      fill_lane();
      for (int i = 0; i <= kBatch / 2; ++i)
        static_cast<void>(sim.cancel(handles[static_cast<std::size_t>(i)]));
      held_after_compaction = sim.queue_size();
    });
    while (sim.step()) {
    }
  };
  for (int r = 0; r < 4; ++r) round();

  fired = 0;
  probe_arm();
  for (int r = 0; r < 50; ++r) round();
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  // Compaction left only the live half of the lane behind.
  EXPECT_EQ(held_after_compaction, static_cast<std::size_t>(kBatch / 2 - 1));
  EXPECT_EQ(fired, 50u * (kBatch / 2 + kBatch / 2 - 1));
}

TEST(SimAllocTest, ZeroDelayChurnIsAllocationFree) {
  // Events scheduled at now() ride the current-instant lane. Each of
  // kBatch lane events re-schedules itself at the same instant, so the
  // lane keeps kBatch live entries while its consumed prefix grows: the
  // lane must reclaim that prefix instead of reallocating, so a measured
  // burst four times longer than the warm-up ones still fits. Every
  // fourth burst uses descending ranks, which the lane's bounded insert
  // sends to the heap.
  Simulator sim;
  std::uint64_t fired = 0;
  int hops_left = 0;
  std::function<void()> hop;  // never copied into the engine
  auto burst = [&](int round, int hops) {
    hops_left = hops;
    sim.schedule_after(SimTime::nanos(1), [&, round] {
      for (int i = 0; i < kBatch; ++i) {
        const std::uint64_t rank =
            round % 4 == 0 ? static_cast<std::uint64_t>(kBatch - i) : 0;
        sim.schedule_at_ranked(sim.now(), sim.now(), rank, [&hop] { hop(); });
      }
    });
    while (sim.step()) {
    }
  };
  hop = [&] {
    ++fired;
    if (hops_left-- > 0)
      sim.schedule_after(SimTime::zero(), [&hop] { hop(); });
  };
  for (int round = 0; round < 4; ++round) burst(round, 8 * kBatch);

  fired = 0;
  probe_arm();
  for (int round = 0; round < 8; ++round) burst(round, 32 * kBatch);
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 8u * 33 * kBatch);
}

TEST(SimAllocTest, ReservePresizesTheLane) {
  // reserve(events, slots) gives the lane an eighth of `events`: a cold,
  // presized engine takes that many zero-delay events without
  // allocating.
  Simulator sim;
  sim.reserve(8 * kBatch, kBatch);

  std::uint64_t fired = 0;
  probe_arm();
  for (int i = 0; i < kBatch; ++i)
    sim.schedule_after(SimTime::zero(), [&fired] { ++fired; });
  while (sim.step()) {
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kBatch));
}

TEST(SimAllocTest, OverBudgetCaptureFallsBackToHeap) {
  // Sanity check that the probe actually observes allocations: a capture
  // wider than Simulator::kInlineCallbackBytes must take the heap path.
  struct Huge {
    std::byte bytes[Simulator::kInlineCallbackBytes + 16];
  };
  static_assert(!Simulator::Callback::fits_inline<Huge>());
  Simulator sim;
  warm_up(sim);

  Huge huge{};
  probe_arm();
  sim.schedule_after(SimTime::nanos(1), [huge] { (void)huge; });
  const std::size_t allocs = probe_disarm();
  EXPECT_GE(allocs, 1u);
  sim.run();
}

TEST(SimAllocTest, WorkerTeamRoundsAreAllocationFree) {
  // Regression pin for the run_round signature change: the per-window
  // worker closure is borrowed through a FunctionRef, never type-erased
  // into an owning std::function (which heap-allocates for captures past
  // its small-buffer size). A warm team must run any number of rounds
  // with an arbitrarily wide capture without touching the allocator.
  WorkerTeam team{3};
  struct Wide {
    std::uint64_t lanes[16] = {};  // 128 bytes: past any SBO budget
  } wide;
  // One unmeasured round lets the OS finish any lazy thread setup.
  team.run_round([&wide](int worker) {
    wide.lanes[static_cast<std::size_t>(worker)] += 1;
  });

  probe_arm();
  for (int round = 0; round < 50; ++round) {
    team.run_round([&wide](int worker) {
      wide.lanes[static_cast<std::size_t>(worker)] += 1;
    });
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(wide.lanes[0], 51u);
  EXPECT_EQ(wide.lanes[1], 51u);
  EXPECT_EQ(wide.lanes[2], 51u);
}

TEST(SimAllocTest, ShardedWindowsAreAllocationFree) {
  // Two shards trade tokens across the window barrier: each hop posts to
  // the other shard at exactly the lookahead, and the receiver re-arms a
  // local timer that hops back. Once the mailboxes and merge scratch are
  // at capacity, running windows — serially and on a two-worker team —
  // allocates nothing.
  constexpr SimTime kLookahead = SimTime::micros(50);
  constexpr int kTokens = 16;
  for (const bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "worker team" : "serial");
    ShardedSimulator::Config config;
    config.shards = 2;
    config.lookahead = kLookahead;
    config.parallel = parallel;
    config.workers = 2;
    ShardedSimulator sim{config};
    struct PingPong {
      ShardedSimulator& sim;
      SimTime lookahead;
      std::uint64_t hops[2] = {};  // hops[s] is written only by shard s
      void arm(int shard, SimTime delay) {
        sim.shard_engine(shard).schedule_after(
            delay, [this, shard] { hop(shard); });
      }
      void hop(int shard) {
        ++hops[shard];
        const int peer = 1 - shard;
        sim.post(shard, peer, lookahead,
                 [this, peer] { arm(peer, SimTime::micros(3)); });
      }
    } game{sim, kLookahead};
    for (int t = 0; t < kTokens; ++t)
      game.arm(t % 2, SimTime::micros(1 + t));
    const auto run_windows = [&sim](int n) {
      for (int w = 0; w < n; ++w) {
        ASSERT_TRUE(sim.next_event_time().has_value());
        sim.run_one_window(std::nullopt);
      }
    };
    run_windows(50);

    const std::uint64_t before = game.hops[0] + game.hops[1];
    probe_arm();
    run_windows(500);
    const std::size_t allocs = probe_disarm();
    EXPECT_EQ(allocs, 0u);
    // Every token hops once per 53 µs, so 500 windows of 50 µs move
    // each of them more than 400 times.
    EXPECT_GT(game.hops[0] + game.hops[1] - before, 400u * kTokens);
  }
}

TEST(SimAllocTest, WarmOffloadStartAndJoinAreAllocationFree) {
  // Handing work to the pool and joining it (each join either waits for
  // a worker or runs the work itself) allocates nothing once the pool is
  // up: the callable rides inline in the handle, and the queue is a
  // fixed ring.
  Offload first, second;
  std::uint64_t a = 0, b = 0;
  first.start([&a] { ++a; });  // starts the pool, unmeasured
  first.join();

  probe_arm();
  for (int round = 0; round < 1000; ++round) {
    first.start([&a] { ++a; });
    second.start([&b] { b += 2; });
    first.join();
    second.join();
  }
  const std::size_t allocs = probe_disarm();
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(a, 1001u);
  EXPECT_EQ(b, 2000u);
}

/// Arms the probe when chare 0, an `App`, starts iteration `from` and
/// disarms it when it starts iteration `to`, counting the tasks run in
/// between and, of those, the ones tagged `counted_tag`.
template <class App>
class IterationWindowProbe final : public ExecutionObserver {
 public:
  IterationWindowProbe(RuntimeJob& job, int from, int to, int counted_tag = -1)
      : job_{job}, from_{from}, to_{to}, counted_tag_{counted_tag} {}

  void on_task_executed(const RuntimeJob& /*job*/, PeId /*pe*/,
                        CoreId /*core*/, ChareId /*chare*/, int tag,
                        SimTime /*start*/, SimTime /*end*/) override {
    const int it = static_cast<const App&>(job_.chare(0)).iteration();
    if (!armed_ && !done_ && it >= from_) {
      armed_ = true;
      probe_arm();
    } else if (armed_ && it >= to_) {
      armed_ = false;
      done_ = true;
      allocs = probe_disarm();
    }
    if (armed_) {
      ++tasks;
      if (tag == counted_tag_) ++counted;
    }
  }

  std::size_t allocs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t counted = 0;

 private:
  RuntimeJob& job_;
  int from_, to_, counted_tag_;
  bool armed_ = false;
  bool done_ = false;
};

TEST(SimAllocTest, WarmStencilJobDeliversMessagesWithoutAllocating) {
  // A small Jacobi2D job (16 blocks on 4 PEs over two nodes, no load
  // balancing) on a one-shard ShardedRuntimeHost, the host every scenario
  // runs on. Once warm, the message
  // plane — payloads drawn from the PE free lists, delivery and
  // task-completion callbacks stored inline, the PE queues and the cores'
  // active sets at their peak capacity, the ghost ring reused — makes no
  // heap allocation per delivered message. The window sits between
  // iterations 70 and 120: the per-iteration tallies grow by doubling, and
  // the last doubling before 128 iterations happens at iteration 64.
  ValidationScope validation{false};
  MachineConfig mc;
  mc.nodes = 2;
  mc.cores_per_node = 2;
  ShardedRuntimeHost::Config hc;
  hc.window = shard_window_width(JobConfig{}.network);
  ShardedRuntimeHost host{mc, hc};
  VirtualMachine vm{host.machine(), "app", {0, 1, 2, 3}};
  JobConfig jc;
  jc.lb_period = 0;
  RuntimeJob job{host, vm, jc, std::make_unique<NullLb>()};
  Jacobi2dConfig config;
  config.layout.grid_x = 32;
  config.layout.grid_y = 32;
  config.layout.blocks_x = 4;
  config.layout.blocks_y = 4;
  config.layout.iterations = 150;
  populate_jacobi2d(job, config);
  IterationWindowProbe<Jacobi2dChare> probe{job, 70, 120};
  job.set_observer(&probe);
  job.start();
  host.drive(10'000'000);
  ASSERT_TRUE(job.finished());
  // 16 blocks × 50 iterations × (2..4 ghosts + 1 compute) tasks.
  EXPECT_GT(probe.tasks, 16u * 50u * 3u);
  EXPECT_EQ(probe.allocs, 0u);
}

TEST(SimAllocTest, WarmMol3dJobAllocatesOnlyItsSendPayloads) {
  // A small Mol3D job (36 cells on 4 PEs over two nodes, no load
  // balancing) on a one-shard ShardedRuntimeHost. Once warm, a cell's
  // received payloads change hands instead of being copied, its two
  // iteration slots hold no storage of their own, its compute message
  // comes from the PE's recycled payloads, and the force kernel and the
  // leaver staging keep their scratch on the stack of whichever thread
  // runs them. What is left per force computation is the six payloads its
  // send phase builds and the integrator's exact-size particle vector,
  // allocated on the engine thread when the compute starts. The window is
  // the stencil test's, for the same per-iteration tallies.
  ValidationScope validation{false};
  MachineConfig mc;
  mc.nodes = 2;
  mc.cores_per_node = 2;
  ShardedRuntimeHost::Config hc;
  hc.window = shard_window_width(JobConfig{}.network);
  ShardedRuntimeHost host{mc, hc};
  VirtualMachine vm{host.machine(), "app", {0, 1, 2, 3}};
  JobConfig jc;
  jc.lb_period = 0;
  RuntimeJob job{host, vm, jc, std::make_unique<NullLb>()};
  Mol3dConfig config;
  config.cells_x = 4;
  config.cells_y = 3;
  config.cells_z = 3;
  config.num_particles = 400;
  config.iterations = 150;
  config.sec_per_pair = 1e-7;
  populate_mol3d(job, config);
  IterationWindowProbe<Mol3dChare> probe{job, 70, 120, kMolCompute};
  job.set_observer(&probe);
  job.start();
  host.drive(10'000'000);
  ASSERT_TRUE(job.finished());
  // 36 cells × 50 iterations, give or take the cells ahead of chare 0.
  EXPECT_GT(probe.counted, 36u * 45u);
  EXPECT_LE(probe.allocs, 7u * probe.counted)
      << probe.allocs << " allocations over " << probe.counted
      << " force computations";
}

}  // namespace
}  // namespace cloudlb
