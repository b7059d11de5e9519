// Property-based suites: randomized instances checked against invariants
// that must hold for ANY input, parameterized over seeds so failures are
// reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>

#include "apps/jacobi2d.h"
#include "apps/wave2d.h"
#include "core/background_estimator.h"
#include "lb/greedy_lb.h"
#include "lb/null_lb.h"
#include "lb/refinement.h"
#include "machine/core.h"
#include "machine/machine.h"
#include "runtime/ampi.h"
#include "runtime/job.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/stats.h"
#include "vm/virtual_machine.h"

namespace cloudlb {
namespace {

// ------------------------------------------- processor-sharing invariants

class CorePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(CorePropertyTest, WorkConservationUnderRandomLoad) {
  Rng rng{static_cast<std::uint64_t>(GetParam())};
  Simulator sim;
  Core core{sim, 0};

  const int num_contexts = static_cast<int>(rng.uniform_int(1, 6));
  struct Ctx {
    ContextId id;
    double total_demanded = 0.0;
    int completions = 0;
  };
  std::vector<Ctx> contexts;
  for (int c = 0; c < num_contexts; ++c) {
    // Built with += rather than "c" + std::to_string(c): GCC 12 at -O3
    // reports a false -Werror=restrict on the latter.
    std::string name = "c";
    name += std::to_string(c);
    contexts.push_back(
        Ctx{core.register_context(name, rng.uniform(0.5, 4.0))});
  }

  // Random demand chains with random gaps, all scheduled up front.
  int outstanding = 0;
  std::function<void(std::size_t, int)> issue = [&](std::size_t c,
                                                    int remaining) {
    if (remaining == 0) {
      --outstanding;
      return;
    }
    const double cpu = rng.uniform(0.001, 0.2);
    contexts[c].total_demanded += cpu;
    const SimTime gap = SimTime::from_seconds(rng.uniform(0.0, 0.05));
    sim.schedule_after(gap, [&, c, cpu, remaining] {
      core.demand(contexts[c].id, SimTime::from_seconds(cpu), [&, c, remaining] {
        ++contexts[c].completions;
        issue(c, remaining - 1);
      });
    });
  };
  std::vector<int> chain_lengths;
  for (std::size_t c = 0; c < contexts.size(); ++c) {
    ++outstanding;
    const int len = static_cast<int>(rng.uniform_int(1, 12));
    chain_lengths.push_back(len);
    issue(c, len);
  }
  sim.run();

  // 1. Every chain drained.
  for (std::size_t c = 0; c < contexts.size(); ++c)
    EXPECT_EQ(contexts[c].completions, chain_lengths[c]);

  // 2. Work conservation: each context consumed exactly what it demanded.
  double total_demanded = 0.0, total_consumed = 0.0;
  for (const Ctx& ctx : contexts) {
    const double consumed = core.context_cpu_time(ctx.id).to_seconds();
    EXPECT_NEAR(consumed, ctx.total_demanded, 1e-6);
    total_demanded += ctx.total_demanded;
    total_consumed += consumed;
  }

  // 3. The core was busy exactly as long as the per-context CPU adds up
  //    (speed 1.0), and busy + idle == elapsed wall clock.
  const ProcStat st = core.proc_stat();
  EXPECT_NEAR(st.busy.to_seconds(), total_consumed, 1e-5);
  EXPECT_NEAR(st.busy.to_seconds() + st.idle.to_seconds(),
              sim.now().to_seconds(), 1e-6);

  // 4. The run cannot finish faster than the serial sum of all CPU.
  EXPECT_GE(sim.now().to_seconds() + 1e-6, total_demanded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorePropertyTest, ::testing::Range(1, 25));

// ------------------------------------------------------- simulator fuzzing

class SimulatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorPropertyTest, OrderingAndCancellationInvariants) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 7919};
  Simulator sim;

  std::vector<SimTime> fire_times;
  std::vector<EventHandle> handles;
  int scheduled = 0;
  for (int i = 0; i < 500; ++i) {
    const auto t = SimTime::nanos(rng.uniform_int(0, 1'000'000));
    handles.push_back(sim.schedule_at(
        t, [&fire_times, &sim] { fire_times.push_back(sim.now()); }));
    ++scheduled;
  }
  int cancelled = 0;
  for (const EventHandle& h : handles)
    if (rng.next_double() < 0.3 && sim.cancel(h)) ++cancelled;
  sim.run();

  // 1. Fired + cancelled == scheduled.
  EXPECT_EQ(static_cast<int>(fire_times.size()) + cancelled, scheduled);
  // 2. Non-decreasing firing order.
  for (std::size_t i = 1; i < fire_times.size(); ++i)
    EXPECT_GE(fire_times[i], fire_times[i - 1]);
  // 3. Executed counter agrees.
  EXPECT_EQ(sim.executed(), fire_times.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorPropertyTest, ::testing::Range(1, 13));

// -------------------------------------------------- refinement quality

class RefinementQualityTest : public ::testing::TestWithParam<int> {};

LbStats random_stats(Rng& rng, int pes, int chares,
                     std::vector<double>* external) {
  LbStats stats;
  stats.pes.resize(static_cast<std::size_t>(pes));
  external->assign(static_cast<std::size_t>(pes), 0.0);
  for (int p = 0; p < pes; ++p) {
    stats.pes[static_cast<std::size_t>(p)].pe = p;
    stats.pes[static_cast<std::size_t>(p)].core = p;
    stats.pes[static_cast<std::size_t>(p)].wall_sec = 100.0;
    if (rng.next_double() < 0.3)
      (*external)[static_cast<std::size_t>(p)] = rng.uniform(0.0, 10.0);
  }
  stats.chares.resize(static_cast<std::size_t>(chares));
  for (int c = 0; c < chares; ++c) {
    auto& ch = stats.chares[static_cast<std::size_t>(c)];
    ch.chare = c;
    ch.pe = static_cast<PeId>(rng.uniform_int(0, pes - 1));
    ch.cpu_sec = rng.uniform(0.0, 3.0);
    ch.bytes = 1024;
    stats.pes[static_cast<std::size_t>(ch.pe)].task_cpu_sec += ch.cpu_sec;
  }
  for (int p = 0; p < pes; ++p) {
    auto& pe = stats.pes[static_cast<std::size_t>(p)];
    pe.core_idle_sec = std::max(
        0.0, pe.wall_sec - pe.task_cpu_sec -
                 (*external)[static_cast<std::size_t>(p)]);
  }
  return stats;
}

std::vector<double> loads_of(const LbStats& stats,
                             const std::vector<PeId>& assignment,
                             const std::vector<double>& external) {
  std::vector<double> load = external;
  for (std::size_t c = 0; c < assignment.size(); ++c)
    load[static_cast<std::size_t>(assignment[c])] += stats.chares[c].cpu_sec;
  return load;
}

TEST_P(RefinementQualityTest, NeverWorsensMakespanAndMovesSparingly) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 104729};
  const int pes = static_cast<int>(rng.uniform_int(2, 24));
  const int chares = static_cast<int>(rng.uniform_int(pes, pes * 10));
  std::vector<double> external;
  const LbStats stats = random_stats(rng, pes, chares, &external);

  const auto before = loads_of(stats, stats.current_assignment(), external);
  const auto r = refine_assignment(stats, external, 0.05);
  const auto after = loads_of(stats, r.assignment, external);

  // 1. The max load never increases (makespan proxy for tight coupling).
  EXPECT_LE(*std::max_element(after.begin(), after.end()),
            *std::max_element(before.begin(), before.end()) + 1e-9);

  // 2. Load is conserved.
  EXPECT_NEAR(std::accumulate(after.begin(), after.end(), 0.0),
              std::accumulate(before.begin(), before.end(), 0.0), 1e-9);

  // 3. Refinement moves at most the chares of overloaded PEs (it never
  //    reshuffles balanced ones) — bounded by total chares, and zero when
  //    the input is already balanced.
  EXPECT_LE(r.migrations, chares);
  if (load_imbalance(before) < 0.05) {
    EXPECT_EQ(r.migrations, 0);
  }

  // 4. Greedy-from-scratch is the quality yardstick: refinement ends
  //    within max-task of greedy's makespan (it cannot split or swap).
  GreedyLb greedy;
  const auto g = loads_of(stats, greedy.assign(stats), external);
  double max_task = 0.0;
  for (const auto& ch : stats.chares) max_task = std::max(max_task, ch.cpu_sec);
  const double max_ext =
      *std::max_element(external.begin(), external.end());
  EXPECT_LE(*std::max_element(after.begin(), after.end()),
            *std::max_element(g.begin(), g.end()) + max_task + max_ext + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinementQualityTest,
                         ::testing::Range(1, 41));

// ------------------------------------------------ refinement safety net
//
// Invariants that must hold for ANY instance and ANY engine options — the
// safety net under the indexed-engine rewrite (see also
// refinement_diff_test.cc for naive-vs-indexed equivalence).

class RefinementSafetyTest : public ::testing::TestWithParam<int> {};

TEST_P(RefinementSafetyTest, NeverRaisesMaxLoadOrOverloadsReceiver) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 48611 + 5};
  const int pes = static_cast<int>(rng.uniform_int(2, 48));
  const int chares = static_cast<int>(rng.uniform_int(pes, pes * 12));
  std::vector<double> external;
  const LbStats stats = random_stats(rng, pes, chares, &external);

  RefinementOptions options;
  const double eps_choices[] = {0.0, 0.02, 0.05, 0.2};
  options.epsilon_fraction =
      eps_choices[static_cast<std::size_t>(GetParam()) % 4];
  options.tie_break = GetParam() % 2 == 0 ? RefinementTieBreak::kLowestId
                                          : RefinementTieBreak::kHighestId;
  if (GetParam() % 5 == 0)
    options.max_migrations = static_cast<int>(rng.uniform_int(0, 8));

  const auto before = loads_of(stats, stats.current_assignment(), external);
  const double t_avg =
      std::accumulate(before.begin(), before.end(), 0.0) /
      static_cast<double>(pes);
  const double eps = options.epsilon_fraction * t_avg;

  const auto r = refine_assignment(stats, external, options);
  const auto after = loads_of(stats, r.assignment, external);

  // 1. The maximum per-PE load never increases.
  EXPECT_LE(*std::max_element(after.begin(), after.end()),
            *std::max_element(before.begin(), before.end()) + 1e-9);

  // 2. Eq. 3 guard: no chare lands on a PE that ends above T_avg + ε —
  //    i.e. every PE whose load grew is within the tolerance ceiling.
  for (int p = 0; p < pes; ++p) {
    const auto i = static_cast<std::size_t>(p);
    if (after[i] > before[i] + 1e-12) {
      EXPECT_LE(after[i], t_avg + eps + 1e-9)
          << "PE " << p << " was overloaded by a migration";
    }
  }

  // 3. The reported makespan matches an independent recomputation.
  EXPECT_NEAR(r.max_load, *std::max_element(after.begin(), after.end()),
              1e-9);

  // 4. Migration cap respected.
  if (options.max_migrations >= 0) {
    EXPECT_LE(r.migrations, options.max_migrations);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RefinementSafetyTest,
                         ::testing::Range(1, 61));

// ----------------------------------------- stencil geometry sweep (bitwise)

struct StencilGeometry {
  int grid_x, grid_y, blocks_x, blocks_y, cores;
};

class StencilGeometryTest
    : public ::testing::TestWithParam<StencilGeometry> {};

TEST_P(StencilGeometryTest, JacobiMatchesReferenceBitwise) {
  const StencilGeometry g = GetParam();
  Jacobi2dConfig config;
  config.layout.grid_x = g.grid_x;
  config.layout.grid_y = g.grid_y;
  config.layout.blocks_x = g.blocks_x;
  config.layout.blocks_y = g.blocks_y;
  config.layout.iterations = 10;
  config.layout.sec_per_point = 1e-7;

  Simulator sim;
  Machine machine{sim, MachineConfig{.nodes = 2, .cores_per_node = 4, .core_speed_overrides = {}}};
  std::vector<CoreId> ids(static_cast<std::size_t>(g.cores));
  std::iota(ids.begin(), ids.end(), 0);
  VirtualMachine vm{machine, "app", ids};
  JobConfig jc;
  jc.lb_period = 0;
  RuntimeJob job{sim, vm, jc, std::make_unique<NullLb>()};
  populate_jacobi2d(job, config);
  job.start();
  sim.run();
  ASSERT_TRUE(job.finished());

  const auto serial = jacobi2d_reference(config);
  for (std::size_t c = 0; c < job.num_chares(); ++c) {
    auto* chare =
        dynamic_cast<Jacobi2dChare*>(&job.chare(static_cast<ChareId>(c)));
    const auto block = chare->block_values();
    for (int y = 0; y < chare->ny(); ++y)
      for (int x = 0; x < chare->nx(); ++x)
        ASSERT_EQ(
            block[static_cast<std::size_t>(y) *
                      static_cast<std::size_t>(chare->nx()) +
                  static_cast<std::size_t>(x)],
            serial[static_cast<std::size_t>(chare->y0() + y) *
                       static_cast<std::size_t>(g.grid_x) +
                   static_cast<std::size_t>(chare->x0() + x)]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, StencilGeometryTest,
    ::testing::Values(StencilGeometry{16, 16, 1, 1, 1},   // single block
                      StencilGeometry{16, 16, 4, 4, 2},   // square
                      StencilGeometry{33, 9, 5, 3, 3},    // ragged blocks
                      StencilGeometry{64, 8, 8, 1, 4},    // 1D strip
                      StencilGeometry{8, 64, 1, 8, 4},    // 1D column
                      StencilGeometry{40, 40, 8, 8, 8},   // chare == 5x5
                      StencilGeometry{23, 17, 7, 5, 6}),  // primes
    [](const auto& test_info) {
      const StencilGeometry& g = test_info.param;
      return std::to_string(g.grid_x) + "x" + std::to_string(g.grid_y) +
             "_b" + std::to_string(g.blocks_x) + "x" +
             std::to_string(g.blocks_y) + "_p" + std::to_string(g.cores);
    });

TEST_P(StencilGeometryTest, WaveMatchesReferenceBitwise) {
  const StencilGeometry g = GetParam();
  Wave2dConfig config;
  config.layout.grid_x = g.grid_x;
  config.layout.grid_y = g.grid_y;
  config.layout.blocks_x = g.blocks_x;
  config.layout.blocks_y = g.blocks_y;
  config.layout.iterations = 10;
  config.layout.sec_per_point = 1e-7;

  Simulator sim;
  Machine machine{sim, MachineConfig{.nodes = 2, .cores_per_node = 4, .core_speed_overrides = {}}};
  std::vector<CoreId> ids(static_cast<std::size_t>(g.cores));
  std::iota(ids.begin(), ids.end(), 0);
  VirtualMachine vm{machine, "app", ids};
  JobConfig jc;
  jc.lb_period = 0;
  RuntimeJob job{sim, vm, jc, std::make_unique<NullLb>()};
  populate_wave2d(job, config);
  job.start();
  sim.run();
  ASSERT_TRUE(job.finished());

  const auto serial = wave2d_reference(config);
  for (std::size_t c = 0; c < job.num_chares(); ++c) {
    auto* chare =
        dynamic_cast<Wave2dChare*>(&job.chare(static_cast<ChareId>(c)));
    const auto block = chare->block_values();
    for (int y = 0; y < chare->ny(); ++y)
      for (int x = 0; x < chare->nx(); ++x)
        ASSERT_EQ(
            block[static_cast<std::size_t>(y) *
                      static_cast<std::size_t>(chare->nx()) +
                  static_cast<std::size_t>(x)],
            serial[static_cast<std::size_t>(chare->y0() + y) *
                       static_cast<std::size_t>(g.grid_x) +
                   static_cast<std::size_t>(chare->x0() + x)]);
  }
}

// --------------------------------------------------------- AMPI properties

class AmpiPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(AmpiPropertyTest, AllreduceCorrectForRandomWorlds) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 977};
  const int ranks = static_cast<int>(rng.uniform_int(2, 24));
  const int cores = static_cast<int>(rng.uniform_int(1, std::min(ranks, 8)));
  std::vector<double> values(static_cast<std::size_t>(ranks));
  double expected = 0.0;
  for (auto& v : values) {
    v = rng.uniform(-10.0, 10.0);
    expected += v;
  }

  Simulator sim;
  Machine machine{sim, MachineConfig{.nodes = 2, .cores_per_node = 4, .core_speed_overrides = {}}};
  std::vector<CoreId> ids(static_cast<std::size_t>(cores));
  std::iota(ids.begin(), ids.end(), 0);
  VirtualMachine vm{machine, "ampi", ids};
  JobConfig jc;
  jc.lb_period = 0;
  RuntimeJob job{sim, vm, jc, std::make_unique<NullLb>()};

  std::vector<double> results;
  ampi::populate_ranks(job, ranks, [&](ampi::Rank& self) {
    // Stagger entry with random compute so contributions interleave with
    // unrelated point-to-point traffic.
    const auto delay =
        SimTime::from_seconds(rng.uniform(0.0, 0.01));
    self.compute(delay, [&self, &values, &results] {
      const int next = (self.rank() + 1) % self.world_size();
      self.send(next, 1, {static_cast<double>(self.rank())});
      self.allreduce_sum(
          values[static_cast<std::size_t>(self.rank())], [&](double total) {
            results.push_back(total);
            const int prev = (self.rank() + self.world_size() - 1) %
                             self.world_size();
            self.recv(prev, 1, [&self](std::vector<double>) { self.done(); });
          });
    });
  });
  job.start();
  sim.run();
  ASSERT_TRUE(job.finished());
  ASSERT_EQ(results.size(), static_cast<std::size_t>(ranks));
  for (const double r : results) EXPECT_NEAR(r, expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AmpiPropertyTest, ::testing::Range(1, 13));

// --------------------------------------------------- estimator soundness

class EstimatorPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EstimatorPropertyTest, EstimateBoundedAndExactOnConsistentInput) {
  Rng rng{static_cast<std::uint64_t>(GetParam()) * 31};
  // Construct a physically consistent sample: wall = task + idle + bg.
  PeSample pe;
  pe.wall_sec = rng.uniform(1.0, 50.0);
  const double task = rng.uniform(0.0, pe.wall_sec);
  const double bg = rng.uniform(0.0, pe.wall_sec - task);
  pe.task_cpu_sec = task;
  pe.core_idle_sec = pe.wall_sec - task - bg;
  const double estimate = estimate_background_load(pe);
  EXPECT_NEAR(estimate, bg, 1e-9);
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, pe.wall_sec + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorPropertyTest,
                         ::testing::Range(1, 21));

}  // namespace
}  // namespace cloudlb
