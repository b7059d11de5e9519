// Microbenchmarks (google-benchmark) for the substrate hot paths: event
// queue throughput, processor-sharing core updates, the LB strategies'
// decision cost at various problem sizes, the Mol3D force kernel, a hand-off
// to the offload pool, the stencil kernels, and a small end-to-end scenario.

#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <numeric>

#include "apps/jacobi2d.h"
#include "apps/mol3d.h"
#include "apps/wave2d.h"
#include "core/background_estimator.h"
#include "core/interference_aware_lb.h"
#include "core/scenario.h"
#include "lb/greedy_lb.h"
#include "lb/refinement.h"
#include "machine/core.h"
#include "sim/simulator.h"
#include "support/mol3d_reference_forces.h"
#include "support/refinement_naive.h"
#include "support/stencil_reference.h"
#include "util/offload.h"
#include "util/rng.h"

namespace cloudlb {
namespace {

// ---------------------------------------------------------- simulator

void BM_SimulatorScheduleRun(benchmark::State& state) {
  const auto events = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    int fired = 0;
    for (int i = 0; i < events; ++i)
      sim.schedule_at(SimTime::nanos((i * 2654435761u) % 1'000'000),
                      [&fired] { ++fired; });
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_SimulatorScheduleRun)->Arg(1'000)->Arg(10'000)->Arg(100'000);

void BM_SimulatorCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    std::vector<EventHandle> handles;
    handles.reserve(10'000);
    for (int i = 0; i < 10'000; ++i)
      handles.push_back(
          sim.schedule_at(SimTime::nanos(i), [] {}));
    for (std::size_t i = 0; i < handles.size(); i += 2)
      benchmark::DoNotOptimize(sim.cancel(handles[i]));
    sim.run();
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_SimulatorCancelHeavy);

// --------------------------------------------------- event-engine core
//
// The three access patterns the runtime actually generates, measured in
// steady state (the Simulator lives across iterations, so slot/queue
// storage is warm and the schedule→fire cycle is the only cost):
//   - SteadyState: K self-re-arming timers, small captures;
//   - SteadyStateFatCapture: same, but captures too big for libstdc++'s
//     std::function SSO (exercises the callback-storage allocation path);
//   - ScheduleCancelChurn: re-armed timeout that almost never fires;
//   - TimerWheelRearm: cancel + push-back of rotating timeouts
//     interleaved with real event delivery.

constexpr int kEngineBatch = 4096;

// Deterministic delay stream (no <random>, identical across runs).
inline std::uint64_t mix_delay(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return 1 + ((state >> 33) % 1000);
}

void BM_EventEngineSteadyState(benchmark::State& state) {
  const auto timers = static_cast<int>(state.range(0));
  struct Wheel {
    Simulator sim;
    std::uint64_t delays = 0x9e3779b97f4a7c15ull;
    void arm(int slot) {
      sim.schedule_after(SimTime::nanos(mix_delay(delays)),
                         [this, slot] { arm(slot); });
    }
  };
  Wheel w;
  for (int i = 0; i < timers; ++i) w.arm(i);
  for (auto _ : state) {
    for (int i = 0; i < kEngineBatch; ++i)
      benchmark::DoNotOptimize(w.sim.step());
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EventEngineSteadyState)->Arg(16)->Arg(1024);

void BM_EventEngineSteadyStateFatCapture(benchmark::State& state) {
  struct Wheel {
    Simulator sim;
    std::uint64_t delays = 0x9e3779b97f4a7c15ull;
    std::uint64_t sink = 0;
    void arm(int slot) {
      // 40 payload bytes + this + slot: past std::function's 16-byte SSO,
      // within the engine's inline-callback budget.
      std::uint64_t payload[5] = {delays, delays + 1, delays + 2,
                                  delays + 3, delays + 4};
      sim.schedule_after(
          SimTime::nanos(mix_delay(delays)), [this, slot, payload] {
            sink += payload[static_cast<std::size_t>(slot) % 5];
            arm(slot);
          });
    }
  };
  Wheel w;
  for (int i = 0; i < 64; ++i) w.arm(i);
  for (auto _ : state) {
    for (int i = 0; i < kEngineBatch; ++i)
      benchmark::DoNotOptimize(w.sim.step());
  }
  benchmark::DoNotOptimize(w.sink);
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EventEngineSteadyStateFatCapture);

void BM_EventEngineScheduleCancelChurn(benchmark::State& state) {
  Simulator sim;
  std::uint64_t delays = 0x9e3779b97f4a7c15ull;
  EventHandle armed;
  for (auto _ : state) {
    for (int i = 0; i < kEngineBatch; ++i) {
      if (armed.valid()) benchmark::DoNotOptimize(sim.cancel(armed));
      armed = sim.schedule_after(SimTime::seconds(3600) +
                                     SimTime::nanos(mix_delay(delays)),
                                 [] {});
    }
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EventEngineScheduleCancelChurn);

void BM_EventEngineTimerWheelRearm(benchmark::State& state) {
  // kTimers rotating timeouts, each pushed back on every "message"; one in
  // kTimers operations also delivers a real event (the pattern of a NIC
  // model guarding transfers with a timeout that rarely expires).
  constexpr int kTimers = 256;
  Simulator sim;
  std::uint64_t delays = 0x9e3779b97f4a7c15ull;
  std::vector<EventHandle> timeout(kTimers);
  int next = 0;
  for (auto _ : state) {
    for (int i = 0; i < kEngineBatch; ++i) {
      auto& h = timeout[static_cast<std::size_t>(next)];
      if (h.valid()) benchmark::DoNotOptimize(sim.cancel(h));
      h = sim.schedule_after(SimTime::millis(10), [] {});
      if (++next == kTimers) {
        next = 0;
        sim.schedule_after(SimTime::nanos(mix_delay(delays)), [] {});
        benchmark::DoNotOptimize(sim.step());
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EventEngineTimerWheelRearm);

void BM_EventEngineSameInstantBurst(benchmark::State& state) {
  // The shape of the Fig. 2 cell (perfbench's paper-jacobi32): about 190
  // pending events spread over about 12 instants, a third of all events
  // scheduled at now() (a task's zero-delay completion relay), and ranks
  // mixed by chare. Each chare cycles message -> task end -> relay.
  constexpr std::uint64_t kChares = 192;
  struct Cell {
    Simulator sim;
    std::uint64_t delays = 0x9e3779b97f4a7c15ull;
    void fire(std::uint64_t chare, int phase) {
      const int next = (phase + 1) % 3;
      SimTime ahead = SimTime::zero();  // phase 2: the zero-delay relay
      if (next != 2)
        ahead = SimTime::micros(
            static_cast<std::int64_t>(1 + mix_delay(delays) % 12));
      sim.schedule_at_ranked(sim.now() + ahead, sim.now(), chare,
                             [this, chare, next] { fire(chare, next); });
    }
  };
  Cell c;
  for (std::uint64_t chare = 0; chare < kChares; ++chare) c.fire(chare, 0);
  for (auto _ : state) {
    for (int i = 0; i < kEngineBatch; ++i)
      benchmark::DoNotOptimize(c.sim.step());
  }
  state.SetItemsProcessed(state.iterations() * kEngineBatch);
}
BENCHMARK(BM_EventEngineSameInstantBurst);

// ---------------------------------------------------------- PS core

void BM_CoreProcessorSharing(benchmark::State& state) {
  const auto contexts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Core core{sim, 0};
    std::vector<ContextId> ids;
    for (int c = 0; c < contexts; ++c)
      ids.push_back(core.register_context("ctx" + std::to_string(c)));
    int completions = 0;
    // Each context issues 20 chained demands; the active set churns.
    std::vector<int> remaining(ids.size(), 20);
    std::function<void(std::size_t)> pump = [&](std::size_t i) {
      ++completions;
      if (--remaining[i] > 0)
        core.demand(ids[i], SimTime::micros(50), [&pump, i] { pump(i); });
    };
    for (std::size_t i = 0; i < ids.size(); ++i)
      core.demand(ids[i], SimTime::micros(50), [&pump, i] { pump(i); });
    sim.run();
    benchmark::DoNotOptimize(completions);
  }
  state.SetItemsProcessed(state.iterations() * contexts * 20);
}
BENCHMARK(BM_CoreProcessorSharing)->Arg(2)->Arg(8)->Arg(32);

// ---------------------------------------------------------- Mol3D forces
//
// One Mol3dChare force computation per iteration, cycling over the cells
// of the default configuration's initial particle set; each cell's ghosts
// are its six face neighbours' particles, as a real iteration sends them.

struct Mol3dCell {
  std::vector<Particle> particles;
  std::array<std::vector<double>, 6> sides;
};

std::vector<Mol3dCell> mol3d_default_cells() {
  const Mol3dConfig config;
  const int nx = config.cells_x, ny = config.cells_y, nz = config.cells_z;
  const auto cell_id = [&](int x, int y, int z) {
    return static_cast<std::size_t>((((z + nz) % nz) * ny + (y + ny) % ny) * nx +
                                    (x + nx) % nx);
  };
  std::vector<Mol3dCell> cells(static_cast<std::size_t>(config.num_cells()));
  for (const Particle& p : mol3d_initial_particles(config))
    cells[cell_id(std::min(static_cast<int>(p.x), nx - 1),
                  std::min(static_cast<int>(p.y), ny - 1),
                  std::min(static_cast<int>(p.z), nz - 1))]
        .particles.push_back(p);
  for (int z = 0; z < nz; ++z)
    for (int y = 0; y < ny; ++y)
      for (int x = 0; x < nx; ++x) {
        const std::size_t neighbours[6] = {
            cell_id(x - 1, y, z), cell_id(x + 1, y, z), cell_id(x, y - 1, z),
            cell_id(x, y + 1, z), cell_id(x, y, z - 1), cell_id(x, y, z + 1)};
        auto& sides = cells[cell_id(x, y, z)].sides;
        for (std::size_t s = 0; s < 6; ++s)
          for (const Particle& p : cells[neighbours[s]].particles)
            sides[s].insert(sides[s].end(), {p.x, p.y, p.z});
      }
  return cells;
}

void BM_Mol3dKernel(benchmark::State& state, Mol3dForcesFn kernel) {
  const Mol3dConfig config;
  const std::vector<Mol3dCell> cells = mol3d_default_cells();
  std::vector<Mol3dGhosts> ghosts(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c)
    for (std::size_t s = 0; s < 6; ++s) ghosts[c][s] = cells[c].sides[s];
  Mol3dForces forces;
  std::size_t c = 0;
  for (auto _ : state) {
    kernel(cells[c].particles, ghosts[c], config, forces);
    benchmark::DoNotOptimize(forces.fx.data());
    benchmark::ClobberMemory();
    c = c + 1 == cells.size() ? 0 : c + 1;
  }
}

// The kernel mol3d_forces runs (the widest the host supports), then each
// width on its own.
void BM_Mol3dForces(benchmark::State& state) {
  BM_Mol3dKernel(state, mol3d_forces);
}
BENCHMARK(BM_Mol3dForces)->Unit(benchmark::kMicrosecond);

void BM_Mol3dForcesTwoLane(benchmark::State& state) {
  BM_Mol3dKernel(state, mol3d_kernels().two_lane);
}
BENCHMARK(BM_Mol3dForcesTwoLane)->Unit(benchmark::kMicrosecond);

void BM_Mol3dForcesAvx2(benchmark::State& state) {
  const Mol3dForcesFn avx2 = mol3d_kernels().avx2;
  if (avx2 == nullptr) {
    state.SkipWithError("the host cannot run AVX2");
    return;
  }
  BM_Mol3dKernel(state, avx2);
}
BENCHMARK(BM_Mol3dForcesAvx2)->Unit(benchmark::kMicrosecond);

// The retained scalar loop the kernel must match bit for bit.
void BM_Mol3dForcesReference(benchmark::State& state) {
  BM_Mol3dKernel(state, mol3d_reference_forces);
}
BENCHMARK(BM_Mol3dForcesReference)->Unit(benchmark::kMicrosecond);

// One hand-off to a pool worker and back: start a trivial piece of work,
// wait until a worker has run it, join. The stencils run inline because
// their sweep (BM_Jacobi2dSweep) costs about this much.
void BM_OffloadHandOff(benchmark::State& state) {
  if (Offload::workers() == 0) {
    state.SkipWithError("no pool workers on this host");
    return;
  }
  Offload task;
  std::atomic<bool> ran{false};
  for (auto _ : state) {
    ran.store(false, std::memory_order_relaxed);
    task.start([&ran] { ran.store(true, std::memory_order_release); });
    while (!ran.load(std::memory_order_acquire)) {
    }
    task.join();
  }
}
BENCHMARK(BM_OffloadHandOff)->Unit(benchmark::kNanosecond);

// ------------------------------------------------------- stencil kernels
//
// One block update per iteration, cycling over the blocks of the default
// layout (256 × 256 points in 32 × 16 blocks of 8 × 16, the Fig. 2 cell's
// decomposition) with their initial values and every neighbour's edge as
// ghosts.

struct StencilBench {
  std::vector<StencilBlock> blocks;
  std::vector<std::vector<double>> values;
  std::vector<StencilGhosts> ghosts;
};

StencilBench stencil_default_blocks() {
  const StencilLayout l;
  StencilBench bench;
  for (int by = 0; by < l.blocks_y; ++by)
    for (int bx = 0; bx < l.blocks_x; ++bx) {
      const StencilBlock b = l.block(bx, by);
      const auto at = [&](int gx, int gy) {
        return stencil_initial_value(gx, gy, l.grid_x, l.grid_y);
      };
      std::vector<double> v;
      for (int gy = b.y0; gy < b.y0 + b.ny; ++gy)
        for (int gx = b.x0; gx < b.x0 + b.nx; ++gx) v.push_back(at(gx, gy));
      StencilGhosts g;
      for (int gy = b.y0; gy < b.y0 + b.ny; ++gy) {
        if (b.x0 > 0) g[kWest].push_back(at(b.x0 - 1, gy));
        if (b.x0 + b.nx < l.grid_x) g[kEast].push_back(at(b.x0 + b.nx, gy));
      }
      for (int gx = b.x0; gx < b.x0 + b.nx; ++gx) {
        if (b.y0 > 0) g[kNorth].push_back(at(gx, b.y0 - 1));
        if (b.y0 + b.ny < l.grid_y) g[kSouth].push_back(at(gx, b.y0 + b.ny));
      }
      bench.blocks.push_back(b);
      bench.values.push_back(std::move(v));
      bench.ghosts.push_back(std::move(g));
    }
  return bench;
}

template <auto Sweep>
void BM_JacobiKernel(benchmark::State& state) {
  const StencilBench bench = stencil_default_blocks();
  std::vector<double> out;
  std::size_t c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Sweep(bench.blocks[c], bench.values[c], bench.ghosts[c], out));
    benchmark::ClobberMemory();
    c = c + 1 == bench.blocks.size() ? 0 : c + 1;
  }
}

void BM_Jacobi2dSweep(benchmark::State& state) {
  BM_JacobiKernel<jacobi2d_sweep>(state);
}
BENCHMARK(BM_Jacobi2dSweep)->Unit(benchmark::kNanosecond);

// The retained per-point loop the kernel must match bit for bit.
void BM_Jacobi2dSweepReference(benchmark::State& state) {
  BM_JacobiKernel<jacobi2d_reference_sweep>(state);
}
BENCHMARK(BM_Jacobi2dSweepReference)->Unit(benchmark::kNanosecond);

template <auto Step>
void BM_WaveKernel(benchmark::State& state) {
  const StencilBench bench = stencil_default_blocks();
  std::vector<double> out;
  std::size_t c = 0;
  for (auto _ : state) {
    Step(bench.blocks[c], 0.25, bench.values[c], bench.values[c],
         bench.ghosts[c], out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    c = c + 1 == bench.blocks.size() ? 0 : c + 1;
  }
}

void BM_Wave2dStep(benchmark::State& state) {
  BM_WaveKernel<wave2d_step>(state);
}
BENCHMARK(BM_Wave2dStep)->Unit(benchmark::kNanosecond);

void BM_Wave2dStepReference(benchmark::State& state) {
  BM_WaveKernel<wave2d_reference_step>(state);
}
BENCHMARK(BM_Wave2dStepReference)->Unit(benchmark::kNanosecond);

// ---------------------------------------------------------- LB decisions

LbStats synthetic_stats(int pes, int chares, std::uint64_t seed) {
  Rng rng{seed};
  LbStats stats;
  stats.pes.resize(static_cast<std::size_t>(pes));
  for (int p = 0; p < pes; ++p) {
    auto& pe = stats.pes[static_cast<std::size_t>(p)];
    pe.pe = p;
    pe.core = p;
    pe.wall_sec = 10.0;
  }
  stats.chares.resize(static_cast<std::size_t>(chares));
  for (int c = 0; c < chares; ++c) {
    auto& ch = stats.chares[static_cast<std::size_t>(c)];
    ch.chare = c;
    ch.pe = static_cast<PeId>(rng.uniform_int(0, pes - 1));
    ch.cpu_sec = rng.uniform(0.01, 0.5);
    ch.bytes = 65536;
    stats.pes[static_cast<std::size_t>(ch.pe)].task_cpu_sec += ch.cpu_sec;
  }
  for (auto& pe : stats.pes) {
    const double bg = rng.next_double() < 0.25 ? rng.uniform(0.0, 5.0) : 0.0;
    pe.core_idle_sec = std::max(0.0, pe.wall_sec - pe.task_cpu_sec - bg);
  }
  return stats;
}

void BM_RefinementAlgorithm(benchmark::State& state) {
  const auto pes = static_cast<int>(state.range(0));
  const auto chares = static_cast<int>(state.range(1));
  const LbStats stats = synthetic_stats(pes, chares, 42);
  const auto background = estimate_background_load(stats);
  for (auto _ : state) {
    auto result = refine_assignment(stats, background, 0.05);
    benchmark::DoNotOptimize(result.migrations);
  }
  state.SetItemsProcessed(state.iterations() * chares);
}
BENCHMARK(BM_RefinementAlgorithm)
    ->Args({8, 64})
    ->Args({32, 256})
    ->Args({128, 1024})
    ->Args({512, 4096});

// The retained naive kernel at the same sizes, for a quick indexed-vs-naive
// ratio without the full bench/micro_refinement_sweep run.
void BM_RefinementAlgorithmNaive(benchmark::State& state) {
  const auto pes = static_cast<int>(state.range(0));
  const auto chares = static_cast<int>(state.range(1));
  const LbStats stats = synthetic_stats(pes, chares, 42);
  const auto background = estimate_background_load(stats);
  const RefinementOptions options{.epsilon_fraction = 0.05};
  for (auto _ : state) {
    auto result = refine_assignment_naive(stats, background, options);
    benchmark::DoNotOptimize(result.migrations);
  }
  state.SetItemsProcessed(state.iterations() * chares);
}
BENCHMARK(BM_RefinementAlgorithmNaive)
    ->Args({8, 64})
    ->Args({32, 256})
    ->Args({128, 1024})
    ->Args({512, 4096});

void BM_GreedyAlgorithm(benchmark::State& state) {
  const auto pes = static_cast<int>(state.range(0));
  const auto chares = static_cast<int>(state.range(1));
  const LbStats stats = synthetic_stats(pes, chares, 42);
  GreedyLb lb;
  for (auto _ : state) {
    auto result = lb.assign(stats);
    benchmark::DoNotOptimize(result.data());
  }
  state.SetItemsProcessed(state.iterations() * chares);
}
BENCHMARK(BM_GreedyAlgorithm)->Args({32, 256})->Args({512, 4096});

void BM_BackgroundEstimator(benchmark::State& state) {
  const LbStats stats = synthetic_stats(512, 4096, 7);
  for (auto _ : state) {
    auto bg = estimate_background_load(stats);
    benchmark::DoNotOptimize(bg.data());
  }
  state.SetItemsProcessed(state.iterations() * 512);
}
BENCHMARK(BM_BackgroundEstimator);

// ---------------------------------------------------------- end to end

void BM_SmallScenarioEndToEnd(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioConfig config;
    config.app.name = "jacobi2d";
    config.app.iterations = 10;
    config.app_cores = 4;
    config.balancer = "ia-refine";
    config.bg_iterations = 20;
    const RunResult r = run_scenario(config);
    benchmark::DoNotOptimize(r.energy_joules);
  }
}
BENCHMARK(BM_SmallScenarioEndToEnd)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloudlb

BENCHMARK_MAIN();
