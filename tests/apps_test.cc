#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "apps/app_factory.h"
#include "apps/jacobi2d.h"
#include "apps/mol3d.h"
#include "apps/stencil_base.h"
#include "apps/wave2d.h"
#include "lb/greedy_lb.h"
#include "lb/null_lb.h"
#include "machine/machine.h"
#include "runtime/job.h"
#include "sim/simulator.h"
#include "support/mol3d_reference_forces.h"
#include "support/stencil_reference.h"
#include "util/check.h"
#include "util/rng.h"
#include "vm/virtual_machine.h"

namespace cloudlb {
namespace {

/// Small layouts keep the host-side numerics cheap while still exercising
/// multi-block ghost exchange.
StencilLayout small_layout(int iterations = 12) {
  StencilLayout l;
  l.grid_x = 24;
  l.grid_y = 18;
  l.blocks_x = 4;
  l.blocks_y = 3;
  l.iterations = iterations;
  l.sec_per_point = 1e-6;
  return l;
}

struct AppRig {
  explicit AppRig(int cores, int lb_period = 0,
                  std::unique_ptr<LoadBalancer> lb = nullptr)
      : machine(sim, MachineConfig{.nodes = 2, .cores_per_node = 4, .core_speed_overrides = {}}) {
    std::vector<CoreId> ids(static_cast<std::size_t>(cores));
    std::iota(ids.begin(), ids.end(), 0);
    vm = std::make_unique<VirtualMachine>(machine, "app", ids);
    JobConfig config;
    config.lb_period = lb_period;
    if (lb == nullptr) lb = std::make_unique<NullLb>();
    job = std::make_unique<RuntimeJob>(sim, *vm, config, std::move(lb));
  }

  void run() {
    job->start();
    sim.run();
    ASSERT_TRUE(job->finished());
  }

  Simulator sim;
  Machine machine;
  std::unique_ptr<VirtualMachine> vm;
  std::unique_ptr<RuntimeJob> job;
};

/// Gathers the distributed stencil grid back into a row-major full grid.
template <typename ChareT>
std::vector<double> gather_grid(RuntimeJob& job, const StencilLayout& l) {
  std::vector<double> grid(static_cast<std::size_t>(l.grid_x) *
                           static_cast<std::size_t>(l.grid_y));
  for (std::size_t c = 0; c < job.num_chares(); ++c) {
    auto* chare = dynamic_cast<ChareT*>(&job.chare(static_cast<ChareId>(c)));
    CLB_CHECK(chare != nullptr);
    const std::vector<double> block = chare->block_values();
    for (int y = 0; y < chare->ny(); ++y)
      for (int x = 0; x < chare->nx(); ++x)
        grid[static_cast<std::size_t>(chare->y0() + y) *
                 static_cast<std::size_t>(l.grid_x) +
             static_cast<std::size_t>(chare->x0() + x)] =
            block[static_cast<std::size_t>(y) *
                      static_cast<std::size_t>(chare->nx()) +
                  static_cast<std::size_t>(x)];
  }
  return grid;
}

// ------------------------------------------------------------- StencilLayout

TEST(StencilLayoutTest, Validation) {
  StencilLayout l = small_layout();
  EXPECT_NO_THROW(l.validate());
  l.blocks_x = 0;
  EXPECT_THROW(l.validate(), CheckFailure);
  l = small_layout();
  l.grid_x = 2;
  EXPECT_THROW(l.validate(), CheckFailure);
  l = small_layout();
  l.iterations = 0;
  EXPECT_THROW(l.validate(), CheckFailure);
}

TEST(StencilLayoutTest, InitialValueDeterministic) {
  EXPECT_DOUBLE_EQ(stencil_initial_value(3, 4, 24, 18),
                   stencil_initial_value(3, 4, 24, 18));
  // Boundary of the sine mode is zero, bump is tiny far away.
  EXPECT_NEAR(stencil_initial_value(0, 0, 24, 18), 0.0, 0.05);
}

// ----------------------------------------------------------------- Jacobi2D

TEST(Jacobi2dTest, MatchesSerialReferenceBitwise) {
  // Synchronous Jacobi has order-independent arithmetic per point, so the
  // message-driven run must agree with the serial loop exactly — a strong
  // end-to-end check of ghost routing.
  Jacobi2dConfig config;
  config.layout = small_layout();
  AppRig rig{4};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, config.layout);
  const auto serial = jacobi2d_reference(config);
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]) << "at index " << i;
}

TEST(Jacobi2dTest, MatchesReferenceOnUnevenBlocks) {
  // Grid not divisible by blocks: 25×19 over 4×3 blocks.
  Jacobi2dConfig config;
  config.layout = small_layout();
  config.layout.grid_x = 25;
  config.layout.grid_y = 19;
  AppRig rig{3};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, config.layout);
  const auto serial = jacobi2d_reference(config);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Jacobi2dTest, ResultUnchangedByMigration) {
  // Aggressive greedy balancing migrates blocks mid-run; the numerics must
  // not notice.
  Jacobi2dConfig config;
  config.layout = small_layout(16);
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  EXPECT_GT(rig.job->counters().lb_steps, 0);
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, config.layout);
  const auto serial = jacobi2d_reference(config);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Jacobi2dTest, BoundaryHeldFixed) {
  Jacobi2dConfig config;
  config.layout = small_layout();
  const auto result = jacobi2d_reference(config);
  const int gx = config.layout.grid_x;
  for (int x = 0; x < gx; ++x)
    EXPECT_DOUBLE_EQ(result[static_cast<std::size_t>(x)],
                     stencil_initial_value(x, 0, gx, config.layout.grid_y));
}

TEST(Jacobi2dTest, ConvergesTowardHarmonic) {
  // The max-norm of the interior decreases monotonically under averaging
  // with a fixed boundary... over a long horizon it must shrink noticeably.
  Jacobi2dConfig few, many;
  few.layout = small_layout(2);
  many.layout = small_layout(200);
  auto interior_max = [&](const std::vector<double>& g, const StencilLayout& l) {
    double mx = 0.0;
    for (int y = 1; y < l.grid_y - 1; ++y)
      for (int x = 1; x < l.grid_x - 1; ++x)
        mx = std::max(mx, std::abs(g[static_cast<std::size_t>(y) *
                                         static_cast<std::size_t>(l.grid_x) +
                                     static_cast<std::size_t>(x)]));
    return mx;
  };
  EXPECT_LT(interior_max(jacobi2d_reference(many), many.layout),
            0.8 * interior_max(jacobi2d_reference(few), few.layout));
}

TEST(Jacobi2dTest, TaskCostsScaleWithBlockArea) {
  Jacobi2dConfig config;
  config.layout = small_layout(4);
  AppRig rig{2};
  populate_jacobi2d(*rig.job, config);
  rig.job->start();
  rig.sim.run();
  // Total CPU ≈ grid points × iterations × sec_per_point (+ ghost costs).
  const double expected = 24.0 * 18.0 * 4 * 1e-6;
  EXPECT_NEAR(rig.job->cpu_consumed().to_seconds(), expected,
              0.2 * expected);
}

TEST(Jacobi2dTest, ResidualConvergenceStopsEarly) {
  Jacobi2dConfig config;
  config.layout = small_layout(500);
  config.layout.residual_period = 4;
  config.layout.residual_tolerance = 2.0;  // generous: converges quickly
  AppRig rig{4};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  auto* probe = dynamic_cast<Jacobi2dChare*>(&rig.job->chare(0));
  ASSERT_NE(probe, nullptr);
  const int sweeps = probe->iteration();
  EXPECT_LT(sweeps, 500);
  EXPECT_GT(sweeps, 0);
  // Every chare agrees on the stopping iteration (the reduction is global).
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* chare = dynamic_cast<Jacobi2dChare*>(
        &rig.job->chare(static_cast<ChareId>(c)));
    EXPECT_EQ(chare->iteration(), sweeps);
  }
  // And the result equals the serial reference run for the same count.
  Jacobi2dConfig truncated = config;
  truncated.layout.iterations = sweeps;
  const auto serial = jacobi2d_reference(truncated);
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, config.layout);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Jacobi2dTest, ResidualCheckingDoesNotPerturbNumerics) {
  // With an unreachable tolerance the run goes the full distance and must
  // match the plain fixed-iteration result bitwise.
  Jacobi2dConfig checked;
  checked.layout = small_layout(12);
  checked.layout.residual_period = 3;
  checked.layout.residual_tolerance = 1e-300;
  AppRig rig{4};
  populate_jacobi2d(*rig.job, checked);
  rig.run();
  Jacobi2dConfig plain;
  plain.layout = small_layout(12);
  const auto serial = jacobi2d_reference(plain);
  const auto parallel = gather_grid<Jacobi2dChare>(*rig.job, checked.layout);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Jacobi2dTest, ResidualConvergenceSurvivesMigrations) {
  Jacobi2dConfig config;
  config.layout = small_layout(500);
  config.layout.residual_period = 5;
  config.layout.residual_tolerance = 2.0;
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_jacobi2d(*rig.job, config);
  rig.run();
  EXPECT_GT(rig.job->counters().migrations, 0);
  auto* probe = dynamic_cast<Jacobi2dChare*>(&rig.job->chare(0));
  EXPECT_LT(probe->iteration(), 500);
}

// ------------------------------------------------------------------- Wave2D

TEST(Wave2dTest, MatchesSerialReferenceBitwise) {
  Wave2dConfig config;
  config.layout = small_layout();
  AppRig rig{4};
  populate_wave2d(*rig.job, config);
  rig.run();
  const auto parallel = gather_grid<Wave2dChare>(*rig.job, config.layout);
  const auto serial = wave2d_reference(config);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]) << "at index " << i;
}

TEST(Wave2dTest, MigrationPreservesBothTimeLevels) {
  Wave2dConfig config;
  config.layout = small_layout(16);
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_wave2d(*rig.job, config);
  rig.run();
  EXPECT_GT(rig.job->counters().migrations, 0);
  const auto parallel = gather_grid<Wave2dChare>(*rig.job, config.layout);
  const auto serial = wave2d_reference(config);
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(parallel[i], serial[i]);
}

TEST(Wave2dTest, EnergyStaysBounded) {
  // CFL-stable scheme: amplitudes must not blow up.
  Wave2dConfig config;
  config.layout = small_layout(300);
  const auto grid = wave2d_reference(config);
  double mx = 0.0;
  for (const double v : grid) mx = std::max(mx, std::abs(v));
  EXPECT_LT(mx, 10.0);
  EXPECT_GT(mx, 1e-6);  // and the membrane is still moving
}

TEST(Wave2dTest, CourantValidation) {
  Wave2dConfig config;
  config.layout = small_layout();
  config.courant = 0.9;  // unstable for 2D
  AppRig rig{2};
  EXPECT_THROW(populate_wave2d(*rig.job, config), CheckFailure);
}

TEST(Wave2dTest, StateBytesCoverTwoTimeLevels) {
  Wave2dConfig wconfig;
  wconfig.layout = small_layout();
  Jacobi2dConfig jconfig;
  jconfig.layout = small_layout();
  AppRig rig{2};
  populate_wave2d(*rig.job, wconfig);
  AppRig rig2{2};
  populate_jacobi2d(*rig2.job, jconfig);
  EXPECT_GT(rig.job->chare(0).footprint_bytes(),
            rig2.job->chare(0).footprint_bytes());
}

// ------------------------------------------------ stencil kernel exactness

/// Layouts that put blocks in every position the row-wise sweep peels:
/// 1-column and 1-row blocks, blocks on each global boundary (and on two
/// opposite ones at once), uneven splits and non-square grids.
std::vector<StencilLayout> kernel_layouts() {
  const int shapes[][4] = {
      // grid_x, grid_y, blocks_x, blocks_y
      {3, 3, 1, 1},   {3, 3, 3, 3},   {5, 4, 5, 1},  {4, 6, 1, 6},
      {7, 40, 7, 3},  {40, 7, 3, 7},  {17, 13, 5, 4}, {9, 31, 2, 7},
      {24, 18, 4, 3}, {25, 19, 4, 3}, {11, 5, 4, 2},  {6, 12, 5, 11},
  };
  std::vector<StencilLayout> layouts;
  for (const auto& s : shapes) {
    StencilLayout l;
    l.grid_x = s[0];
    l.grid_y = s[1];
    l.blocks_x = s[2];
    l.blocks_y = s[3];
    layouts.push_back(l);
  }
  return layouts;
}

/// Random values with some signed zeros, so the sums meet cancellation
/// and −0.0 as well as ordinary values.
void fill_random(Rng& rng, std::vector<double>& v, std::size_t n) {
  v.resize(n);
  for (double& x : v) {
    const double r = rng.next_double();
    x = r < 0.05 ? -0.0 : r < 0.1 ? 0.0 : rng.uniform(-2.0, 2.0);
  }
}

/// Random ghost edges of the right length on every side with a neighbour.
StencilGhosts random_ghosts(Rng& rng, const StencilBlock& b) {
  StencilGhosts g;
  if (b.x0 > 0) fill_random(rng, g[kWest], static_cast<std::size_t>(b.ny));
  if (b.x0 + b.nx < b.grid_x)
    fill_random(rng, g[kEast], static_cast<std::size_t>(b.ny));
  if (b.y0 > 0) fill_random(rng, g[kNorth], static_cast<std::size_t>(b.nx));
  if (b.y0 + b.ny < b.grid_y)
    fill_random(rng, g[kSouth], static_cast<std::size_t>(b.nx));
  return g;
}

void expect_bitwise_equal(const std::vector<double>& got,
                          const std::vector<double>& want,
                          const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  if (std::memcmp(got.data(), want.data(), got.size() * sizeof(double)) == 0)
    return;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
              std::bit_cast<std::uint64_t>(want[i]))
        << what << ": point " << i;
}

std::string block_name(const StencilLayout& l, int bx, int by, int it) {
  return std::to_string(l.grid_x) + "x" + std::to_string(l.grid_y) + " / " +
         std::to_string(l.blocks_x) + "x" + std::to_string(l.blocks_y) +
         ", block (" + std::to_string(bx) + "," + std::to_string(by) +
         "), iteration " + std::to_string(it);
}

TEST(StencilKernelTest, JacobiSweepMatchesPerPointReference) {
  // Every block of every layout, four sweeps each with fresh ghosts: the
  // row-wise kernel must give the per-point loop's bits, point by point
  // and in the residual.
  Rng rng{16};
  std::vector<double> u, got, want;
  int blocks = 0;
  for (const StencilLayout& l : kernel_layouts()) {
    for (int by = 0; by < l.blocks_y; ++by) {
      for (int bx = 0; bx < l.blocks_x; ++bx) {
        const StencilBlock b = l.block(bx, by);
        fill_random(rng, u, b.points());
        for (int it = 0; it < 4; ++it) {
          const std::string what = block_name(l, bx, by, it);
          const StencilGhosts ghosts = random_ghosts(rng, b);
          const double r_want = jacobi2d_reference_sweep(b, u, ghosts, want);
          const double r_got = jacobi2d_sweep(b, u, ghosts, got);
          expect_bitwise_equal(got, want, what);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(r_got),
                    std::bit_cast<std::uint64_t>(r_want))
              << what << ": residual";
          u.swap(got);
        }
        ++blocks;
      }
    }
  }
  EXPECT_GT(blocks, 100);
}

TEST(StencilKernelTest, WaveStepMatchesPerPointReference) {
  Rng rng{17};
  std::vector<double> prev, cur, got, want;
  for (const double courant : {0.5, 0.3}) {
    const double c2 = courant * courant;
    for (const StencilLayout& l : kernel_layouts()) {
      for (int by = 0; by < l.blocks_y; ++by) {
        for (int bx = 0; bx < l.blocks_x; ++bx) {
          const StencilBlock b = l.block(bx, by);
          fill_random(rng, prev, b.points());
          fill_random(rng, cur, b.points());
          for (int it = 0; it < 4; ++it) {
            const std::string what = block_name(l, bx, by, it) +
                                     ", courant " + std::to_string(courant);
            const StencilGhosts ghosts = random_ghosts(rng, b);
            wave2d_reference_step(b, c2, prev, cur, ghosts, want);
            wave2d_step(b, c2, prev, cur, ghosts, got);
            expect_bitwise_equal(got, want, what);
            prev.swap(cur);
            cur.swap(got);
          }
        }
      }
    }
  }
}

TEST(StencilKernelTest, RejectsGhostEdgeOfWrongLength) {
  StencilLayout l = small_layout();
  const StencilBlock b = l.block(1, 1);
  Rng rng{18};
  std::vector<double> u, out;
  fill_random(rng, u, b.points());
  StencilGhosts ghosts = random_ghosts(rng, b);
  ghosts[kNorth].pop_back();
  EXPECT_THROW(jacobi2d_sweep(b, u, ghosts, out), CheckFailure);
  EXPECT_THROW(wave2d_step(b, 0.25, u, u, ghosts, out), CheckFailure);
}

/// A 4-block Jacobi job: chare 0 is the top-left block, with east and
/// south neighbours.
void populate_small_jacobi(RuntimeJob& job) {
  Jacobi2dConfig config;
  config.layout = small_layout();
  populate_jacobi2d(job, config);
}

/// A started job whose chare 0 receives hand-made messages; by default
/// the small Jacobi job.
struct MalformedRig {
  explicit MalformedRig(void (*populate)(RuntimeJob&) = populate_small_jacobi)
      : rig{2} {
    populate(*rig.job);
    rig.job->start();
  }
  void deliver(int tag, std::vector<double> data) {
    Message msg;
    msg.src = 1;
    msg.dest = 0;
    msg.tag = tag;
    msg.data = std::move(data);
    rig.job->chare(0).execute(msg);
  }
  std::vector<double> ghost(double iter, double side) const {
    std::vector<double> data{iter, side};
    data.resize(2 + 6, 1.0);  // small_layout blocks are 6 × 6
    return data;
  }
  AppRig rig;
};

TEST(StencilBlockTest, RejectsMalformedGhostMessages) {
  MalformedRig m;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(m.deliver(kTagGhost, {}), CheckFailure);
  EXPECT_THROW(m.deliver(kTagGhost, {0.0}), CheckFailure);
  EXPECT_THROW(m.deliver(kTagGhost, m.ghost(0, -1.0)), CheckFailure);
  EXPECT_THROW(m.deliver(kTagGhost, m.ghost(0, 4.0)), CheckFailure);
  EXPECT_THROW(m.deliver(kTagGhost, m.ghost(0, nan)), CheckFailure);
  EXPECT_THROW(m.deliver(kTagGhost, m.ghost(nan, kEast)), CheckFailure);
  EXPECT_THROW(m.deliver(kTagGhost, m.ghost(2, kEast)), CheckFailure);
  // A well-formed ghost is buffered once; the same side again is a
  // duplicate.
  m.deliver(kTagGhost, m.ghost(0, kEast));
  EXPECT_THROW(m.deliver(kTagGhost, m.ghost(0, kEast)), CheckFailure);
}

TEST(StencilBlockTest, RejectsMalformedComputeMessages) {
  MalformedRig m;
  EXPECT_THROW(m.deliver(kTagCompute, {}), CheckFailure);
  EXPECT_THROW(m.deliver(kTagCompute, {1.0}), CheckFailure);
  EXPECT_THROW(
      m.deliver(kTagCompute, {std::numeric_limits<double>::quiet_NaN()}),
      CheckFailure);
}

// ------------------------------------------------------------------- Mol3D

Mol3dConfig small_mol(int iterations = 8) {
  Mol3dConfig config;
  config.cells_x = 4;
  config.cells_y = 3;
  config.cells_z = 3;
  config.num_particles = 400;
  config.iterations = iterations;
  config.sec_per_pair = 1e-7;
  return config;
}

TEST(Mol3dTest, ConfigValidation) {
  Mol3dConfig config = small_mol();
  EXPECT_NO_THROW(config.validate());
  config.cells_x = 2;
  EXPECT_THROW(config.validate(), CheckFailure);
  config = small_mol();
  config.cutoff = 1.5;
  EXPECT_THROW(config.validate(), CheckFailure);
}

TEST(Mol3dTest, InitialParticlesDeterministicAndInBox) {
  const Mol3dConfig config = small_mol();
  const auto a = mol3d_initial_particles(config);
  const auto b = mol3d_initial_particles(config);
  ASSERT_EQ(a.size(), 400u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].x, b[i].x);
    EXPECT_GE(a[i].x, 0.0);
    EXPECT_LT(a[i].x, config.cells_x);
    EXPECT_GE(a[i].y, 0.0);
    EXPECT_LT(a[i].y, config.cells_y);
    EXPECT_GE(a[i].z, 0.0);
    EXPECT_LT(a[i].z, config.cells_z);
  }
}

TEST(Mol3dTest, ClusteringCreatesImbalance) {
  Mol3dConfig config = small_mol();
  config.cluster_fraction = 0.8;
  config.num_particles = 2000;
  const auto particles = mol3d_initial_particles(config);
  std::vector<int> counts(static_cast<std::size_t>(config.num_cells()), 0);
  for (const auto& p : particles) {
    const int cx = std::min(static_cast<int>(p.x), config.cells_x - 1);
    const int cy = std::min(static_cast<int>(p.y), config.cells_y - 1);
    const int cz = std::min(static_cast<int>(p.z), config.cells_z - 1);
    ++counts[static_cast<std::size_t>(
        (cz * config.cells_y + cy) * config.cells_x + cx)];
  }
  const int mx = *std::max_element(counts.begin(), counts.end());
  const double mean =
      static_cast<double>(config.num_particles) / config.num_cells();
  EXPECT_GT(mx, 1.5 * mean);  // clusters concentrate load
}

TEST(Mol3dTest, ParticleCountConservedThroughRun) {
  const Mol3dConfig config = small_mol(10);
  AppRig rig{4};
  populate_mol3d(*rig.job, config);
  rig.run();
  std::size_t total = 0;
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* cell =
        dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
    ASSERT_NE(cell, nullptr);
    total += cell->particles().size();
    EXPECT_EQ(cell->iteration(), 10);
  }
  EXPECT_EQ(total, 400u);
}

TEST(Mol3dTest, DenseCellsRunPastTheStackBuffers) {
  // About 160 particles a cell: the force output, the leaver staging and
  // the kernel's positions all take their heap buffers. The run keeps
  // every particle, inside the box, and repeats bit for bit.
  Mol3dConfig config = small_mol(3);
  config.num_particles = 36 * 160;
  const auto end_state = [&config] {
    AppRig rig{4};
    populate_mol3d(*rig.job, config);
    rig.run();
    std::vector<Particle> all;
    for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
      const auto& cell = dynamic_cast<const Mol3dChare&>(
          rig.job->chare(static_cast<ChareId>(c)));
      EXPECT_EQ(cell.iteration(), 3);
      all.insert(all.end(), cell.particles().begin(), cell.particles().end());
    }
    return all;
  };
  const std::vector<Particle> first = end_state();
  ASSERT_EQ(first.size(), static_cast<std::size_t>(config.num_particles));
  for (const Particle& p : first) {
    EXPECT_TRUE(p.x >= 0.0 && p.x < config.cells_x);
    EXPECT_TRUE(p.y >= 0.0 && p.y < config.cells_y);
    EXPECT_TRUE(p.z >= 0.0 && p.z < config.cells_z);
  }
  const std::vector<Particle> second = end_state();
  ASSERT_EQ(second.size(), first.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(second[i].x),
              std::bit_cast<std::uint64_t>(first[i].x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(second[i].vx),
              std::bit_cast<std::uint64_t>(first[i].vx));
  }
}

TEST(Mol3dTest, FinishedCellsHoldNoGhostPayloads) {
  // A cell frees the payloads it took over once their iteration is
  // computed: a kept buffer would hold the largest payload its face ever
  // sent for the rest of the run.
  AppRig rig{4};
  populate_mol3d(*rig.job, small_mol(10));
  rig.run();
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    const auto& cell = dynamic_cast<const Mol3dChare&>(
        rig.job->chare(static_cast<ChareId>(c)));
    EXPECT_EQ(cell.held_ghost_values(), 0u) << cell.debug_state();
  }
}

TEST(Mol3dTest, ParticlesStayInPeriodicBox) {
  const Mol3dConfig config = small_mol(10);
  AppRig rig{4};
  populate_mol3d(*rig.job, config);
  rig.run();
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* cell =
        dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
    for (const Particle& p : cell->particles()) {
      EXPECT_GE(p.x, 0.0);
      EXPECT_LT(p.x, config.cells_x);
      EXPECT_GE(p.y, 0.0);
      EXPECT_LT(p.y, config.cells_y);
      EXPECT_GE(p.z, 0.0);
      EXPECT_LT(p.z, config.cells_z);
    }
  }
}

TEST(Mol3dTest, DeterministicAcrossRuns) {
  auto fingerprint = [] {
    const Mol3dConfig config = small_mol(6);
    AppRig rig{3};
    populate_mol3d(*rig.job, config);
    rig.job->start();
    rig.sim.run();
    double sum = 0.0;
    for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
      auto* cell =
          dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
      for (const Particle& p : cell->particles())
        sum += p.x + 2 * p.y + 3 * p.z + p.vx;
    }
    return sum;
  };
  EXPECT_DOUBLE_EQ(fingerprint(), fingerprint());
}

TEST(Mol3dTest, SurvivesMigrations) {
  const Mol3dConfig config = small_mol(12);
  AppRig rig{4, 4, std::make_unique<GreedyLb>()};
  populate_mol3d(*rig.job, config);
  rig.run();
  EXPECT_GT(rig.job->counters().migrations, 0);
  std::size_t total = 0;
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* cell =
        dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
    total += cell->particles().size();
  }
  EXPECT_EQ(total, 400u);
}

TEST(Mol3dTest, CostScalesWithParticleCount) {
  Mol3dConfig small = small_mol(4);
  Mol3dConfig big = small_mol(4);
  big.num_particles = 800;
  auto cpu = [](const Mol3dConfig& config) {
    AppRig rig{4};
    populate_mol3d(*rig.job, config);
    rig.job->start();
    rig.sim.run();
    return rig.job->cpu_consumed().to_seconds();
  };
  // Pairwise work grows superlinearly in density.
  EXPECT_GT(cpu(big), 2.5 * cpu(small));
}

/// One input of the Mol3D force kernel: a cell's particles and the ghost
/// positions of its six faces as xyz triples.
struct ForceInput {
  std::vector<Particle> particles;
  std::array<std::vector<double>, 6> sides;

  Mol3dGhosts ghosts() const {
    Mol3dGhosts g;
    for (std::size_t s = 0; s < g.size(); ++s) g[s] = sides[s];
    return g;
  }
  void add_particle(double x, double y, double z) {
    Particle p;
    p.x = x;
    p.y = y;
    p.z = z;
    particles.push_back(p);
  }
  void add_ghost(std::size_t side, double x, double y, double z) {
    sides[side].insert(sides[side].end(), {x, y, z});
  }
};

/// Checks one width of the force kernel against the retained scalar loop,
/// bit for bit. `out` is reused across calls, as the runtime reuses its
/// buffer.
void expect_forces_match_reference(Mol3dForcesFn kernel, const ForceInput& in,
                                   const Mol3dConfig& config,
                                   Mol3dForces& out, const std::string& what) {
  Mol3dForces want;
  mol3d_reference_forces(in.particles, in.ghosts(), config, want);
  kernel(in.particles, in.ghosts(), config, out);
  ASSERT_EQ(out.fx.size(), in.particles.size()) << what;
  ASSERT_EQ(out.fy.size(), in.particles.size()) << what;
  ASSERT_EQ(out.fz.size(), in.particles.size()) << what;
  for (std::size_t i = 0; i < in.particles.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out.fx[i]),
              std::bit_cast<std::uint64_t>(want.fx[i]))
        << what << ": fx of particle " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out.fy[i]),
              std::bit_cast<std::uint64_t>(want.fy[i]))
        << what << ": fy of particle " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(out.fz[i]),
              std::bit_cast<std::uint64_t>(want.fz[i]))
        << what << ": fz of particle " << i;
  }
}

/// A random cell of the default box, its particles (sometimes none or a
/// handful, sometimes clustered into overlap) and 0..31 ghosts per face
/// drawn from the neighbouring cells, so every ghost total mod 4 and pairs
/// across the periodic wrap occur.
void expect_random_cells_match_reference(Mol3dForcesFn kernel) {
  const Mol3dConfig config;
  const double box[3] = {static_cast<double>(config.cells_x),
                         static_cast<double>(config.cells_y),
                         static_cast<double>(config.cells_z)};
  Mol3dForces out;
  std::array<std::size_t, 4> ghost_totals_mod4{};
  std::size_t nonzero_forces = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng{seed};
    const double cell[3] = {
        static_cast<double>(rng.uniform_int(0, config.cells_x - 1)),
        static_cast<double>(rng.uniform_int(0, config.cells_y - 1)),
        static_cast<double>(rng.uniform_int(0, config.cells_z - 1))};
    const double spread = rng.next_double() < 0.2 ? 0.2 : 1.0;
    ForceInput in;
    const auto n = rng.uniform_int(0, 40);
    for (std::int64_t i = 0; i < n; ++i)
      in.add_particle(cell[0] + spread * rng.next_double(),
                      cell[1] + spread * rng.next_double(),
                      cell[2] + spread * rng.next_double());
    std::size_t total = 0;
    for (std::size_t side = 0; side < 6; ++side) {
      const auto axis = side / 2;
      const double shift = side % 2 == 0 ? -1.0 : 1.0;
      const auto count = rng.uniform_int(0, 31);
      total += static_cast<std::size_t>(count);
      for (std::int64_t k = 0; k < count; ++k) {
        double pos[3];
        for (std::size_t a = 0; a < 3; ++a) {
          double v = cell[a] + rng.next_double();
          if (a == axis) v = std::fmod(v + shift + box[a], box[a]);
          pos[a] = v;
        }
        in.add_ghost(side, pos[0], pos[1], pos[2]);
      }
    }
    ++ghost_totals_mod4[total % 4];
    expect_forces_match_reference(kernel, in, config, out,
                                  "seed " + std::to_string(seed));
    for (const double f : out.fx) nonzero_forces += f != 0.0;
  }
  // The grid exercises what it claims to: real forces, and rows ending
  // 0..3 lanes short of a 4-lane pass. The last row compares against the
  // ghosts alone, so each total mod 4 leaves a different padding.
  for (std::size_t r = 0; r < 4; ++r)
    EXPECT_GT(ghost_totals_mod4[r], 40u) << "ghost totals = " << r << " mod 4";
  EXPECT_GT(nonzero_forces, 1000u);
}

TEST(Mol3dTest, ForcesMatchScalarReferenceOnRandomCells) {
  expect_random_cells_match_reference(mol3d_kernels().two_lane);
}

TEST(Mol3dTest, ForcesMatchScalarReferenceOnRandomCellsAvx2) {
  const Mol3dForcesFn avx2 = mol3d_kernels().avx2;
  if (avx2 == nullptr) GTEST_SKIP() << "the host cannot run AVX2";
  expect_random_cells_match_reference(avx2);
}

/// Cells past the kernel's stack buffers: 150 to 300 particles and 40 to
/// 80 ghosts per face put the positions on the heap and every row across
/// several chunks.
void expect_big_cells_match_reference(Mol3dForcesFn kernel) {
  const Mol3dConfig config;
  Mol3dForces out;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng{seed};
    ForceInput in;
    const auto n = rng.uniform_int(150, 300);
    for (std::int64_t i = 0; i < n; ++i)
      in.add_particle(1.0 + rng.next_double(), 1.0 + rng.next_double(),
                      1.0 + rng.next_double());
    for (std::size_t side = 0; side < 6; ++side) {
      const auto count = rng.uniform_int(40, 80);
      for (std::int64_t k = 0; k < count; ++k) {
        double pos[3] = {1.0 + rng.next_double(), 1.0 + rng.next_double(),
                         1.0 + rng.next_double()};
        pos[side / 2] += side % 2 == 0 ? -1.0 : 1.0;
        in.add_ghost(side, pos[0], pos[1], pos[2]);
      }
    }
    expect_forces_match_reference(kernel, in, config, out,
                                  "big cell, seed " + std::to_string(seed));
  }
}

TEST(Mol3dTest, ForcesMatchScalarReferencePastTheStackBuffers) {
  expect_big_cells_match_reference(mol3d_kernels().two_lane);
}

TEST(Mol3dTest, ForcesMatchScalarReferencePastTheStackBuffersAvx2) {
  const Mol3dForcesFn avx2 = mol3d_kernels().avx2;
  if (avx2 == nullptr) GTEST_SKIP() << "the host cannot run AVX2";
  expect_big_cells_match_reference(avx2);
}

void expect_edge_cases_match_reference(Mol3dForcesFn kernel) {
  const Mol3dConfig config;
  const double box[3] = {static_cast<double>(config.cells_x),
                         static_cast<double>(config.cells_y),
                         static_cast<double>(config.cells_z)};
  const double rc = config.cutoff;
  Mol3dForces out;
  auto check = [&](const ForceInput& in, const std::string& what) {
    expect_forces_match_reference(kernel, in, config, out, what);
  };

  ForceInput empty;
  check(empty, "no particles, no ghosts");
  ForceInput ghosts_only;
  for (std::size_t side = 0; side < 6; ++side)
    ghosts_only.add_ghost(side, 1.5, 1.5, 1.5);
  check(ghosts_only, "no particles");

  ForceInput one;
  one.add_particle(1.5, 1.5, 1.5);
  check(one, "one particle, no ghosts");
  one.add_ghost(3, 1.6, 1.5, 1.5);
  check(one, "one particle, one ghost (odd total)");
  one.add_ghost(3, 1.5, 1.9, 1.5);
  one.add_ghost(5, 1.5, 1.5, 2.2);
  check(one, "one particle, ghosts on two faces only");

  ForceInput two;
  two.add_particle(1.2, 1.5, 1.5);
  two.add_particle(1.7, 1.5, 1.5);
  check(two, "two particles, no ghosts");
  for (std::size_t side = 0; side < 6; ++side) {
    two.add_ghost(side, 1.0 + 0.1 * static_cast<double>(side), 1.4, 1.6);
    check(two, "two particles, ghost total " + std::to_string(side + 1));
  }

  // Pairs across the periodic wrap on each axis, in both directions.
  for (std::size_t axis = 0; axis < 3; ++axis) {
    ForceInput wrapped;
    double p[3] = {0.5, 0.5, 0.5};
    double g[3] = {0.5, 0.5, 0.5};
    p[axis] = 0.05;
    g[axis] = box[axis] - 0.1;
    wrapped.add_particle(p[0], p[1], p[2]);
    wrapped.add_ghost(axis * 2, g[0], g[1], g[2]);
    p[axis] = box[axis] - 0.05;
    g[axis] = 0.2;
    wrapped.add_particle(p[0], p[1], p[2]);
    wrapped.add_ghost(axis * 2 + 1, g[0], g[1], g[2]);
    check(wrapped, "wrap on axis " + std::to_string(axis));
  }

  // Overlap: r² below r2_min (0.25·σ²), down to coincident points.
  ForceInput overlap;
  overlap.add_particle(1.5, 1.5, 1.5);
  overlap.add_particle(1.5, 1.5, 1.5);
  overlap.add_particle(1.52, 1.5, 1.5);
  overlap.add_ghost(0, 1.5, 1.5, 1.5);
  overlap.add_ghost(0, 1.5, 1.51, 1.5);
  overlap.add_ghost(2, 1.5, 1.5, 1.49);
  check(overlap, "r2 below r2_min");

  // A pair exactly at the cutoff (excluded) and one just inside it, both
  // among own particles and against ghosts.
  ForceInput cutoff;
  cutoff.add_particle(rc, 0.5, 0.5);
  cutoff.add_particle(0.0, 0.5, 0.5);
  cutoff.add_particle(rc, 1.5, 0.5);
  cutoff.add_particle(0x1p-53, 1.5, 0.5);
  cutoff.add_ghost(1, 0.0, 0.5, 0.5);
  cutoff.add_ghost(1, 0x1p-53, 0.5, 0.5);
  check(cutoff, "pairs at the cutoff");

  // Signed zeros in coordinates and displacements.
  ForceInput zeros;
  zeros.add_particle(-0.0, 0.3, -0.0);
  zeros.add_particle(0.0, -0.0, 0.3);
  zeros.add_ghost(0, 0.0, 0.3, 0.0);
  zeros.add_ghost(0, -0.0, 0.3, -0.0);
  zeros.add_ghost(2, 0.1, -0.0, 0.3);
  zeros.add_ghost(4, -0.0, -0.0, -0.0);
  zeros.add_ghost(4, 0.0, 0.0, 0.0);
  check(zeros, "signed zeros");

  // Displacements at the minimum-image threshold (half a box) and one ulp
  // either side of it, on every axis.
  ForceInput half;
  half.add_particle(0.0, 0.0, 0.0);
  for (std::size_t axis = 0; axis < 3; ++axis)
    for (const double d : {0.5 * box[axis], -0.5 * box[axis]})
      for (const double h : {d, std::nextafter(d, 0.0), std::nextafter(d, 2 * d)}) {
        double g[3] = {0.0, 0.0, 0.0};
        g[axis] = -h;
        half.add_ghost(axis * 2, g[0], g[1], g[2]);
      }
  check(half, "half-box displacements");

  // A NaN coordinate poisons exactly the forces it poisoned before.
  ForceInput nan;
  nan.add_particle(1.5, 1.5, 1.5);
  nan.add_particle(1.6, 1.5, 1.5);
  nan.add_ghost(0, std::nan(""), 1.5, 1.5);
  check(nan, "NaN ghost");

  // A NaN own particle: its row is all hits, as is its column in the
  // earlier rows. Ghost totals 0..3 vary how its row ends.
  ForceInput nan_own;
  nan_own.add_particle(1.5, 1.5, 1.5);
  nan_own.add_particle(1.5, std::nan(""), 1.5);
  nan_own.add_particle(1.6, 1.5, 1.5);
  for (std::size_t g = 0; g < 4; ++g) {
    check(nan_own, "NaN own particle, " + std::to_string(g) + " ghosts");
    nan_own.add_ghost(g, 1.55, 1.45, 1.5);
  }

  // Infinite coordinates: ∞ − ∞ is a NaN distance (a hit), ∞ − x an
  // infinite one (no hit), on own particles and ghosts alike.
  const double inf = std::numeric_limits<double>::infinity();
  ForceInput infinite;
  infinite.add_particle(inf, 1.5, 1.5);
  infinite.add_particle(1.5, -inf, 1.5);
  infinite.add_particle(1.5, 1.5, 1.5);
  infinite.add_particle(inf, 1.5, 1.5);
  infinite.add_ghost(0, inf, 1.5, 1.5);
  infinite.add_ghost(2, 1.5, -inf, 1.5);
  infinite.add_ghost(3, 1.5, inf, 1.5);
  infinite.add_ghost(4, 1.5, 1.5, -inf);
  infinite.add_ghost(5, 1.55, 1.5, 1.5);
  check(infinite, "infinite coordinates");
}

TEST(Mol3dTest, ForcesMatchScalarReferenceOnEdgeCases) {
  expect_edge_cases_match_reference(mol3d_kernels().two_lane);
}

TEST(Mol3dTest, ForcesMatchScalarReferenceOnEdgeCasesAvx2) {
  const Mol3dForcesFn avx2 = mol3d_kernels().avx2;
  if (avx2 == nullptr) GTEST_SKIP() << "the host cannot run AVX2";
  expect_edge_cases_match_reference(avx2);
}

TEST(Mol3dTest, PeriodicWrapMatchesFmodAtEveryBranch) {
  // One step of particles that feel no force (one per cell, a cell apart,
  // beyond the cutoff) lands each at an exact dyadic x; the wrapped x must
  // equal the fmod-based wrap bit for bit on both sides of every branch
  // edge, including v = −box, where fmod gives −0.0.
  Mol3dConfig config;
  config.cells_x = config.cells_y = config.cells_z = 3;
  config.iterations = 1;
  config.dt = 0x1p-7;
  const double box = 3.0;
  const double targets[9] = {-3.5, -3.0, -2.75, -0.25, 0.5,
                             2.75, 3.0, 5.5, 6.0};
  AppRig rig{4};
  for (int cz = 0; cz < 3; ++cz)
    for (int cy = 0; cy < 3; ++cy)
      for (int cx = 0; cx < 3; ++cx) {
        std::vector<Particle> particles;
        if (cx == 0) {
          Particle p;
          p.x = 0.5;
          p.y = cy + 0.5;
          p.z = cz + 0.5;
          p.vx = (targets[cz * 3 + cy] - p.x) / config.dt;
          particles.push_back(p);
        }
        const ChareId id = rig.job->add_chare(
            std::make_unique<Mol3dChare>(config, cx, cy, cz, particles));
        ASSERT_EQ(id, static_cast<ChareId>((cz * 3 + cy) * 3 + cx));
      }
  rig.run();
  for (int i = 0; i < 9; ++i) {
    auto* cell = dynamic_cast<Mol3dChare*>(
        &rig.job->chare(static_cast<ChareId>(i * 3)));
    ASSERT_NE(cell, nullptr);
    ASSERT_EQ(cell->particles().size(), 1u);
    const double v = std::fmod(targets[i], box);
    const double want = v < 0 ? v + box : v;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(cell->particles()[0].x),
              std::bit_cast<std::uint64_t>(want))
        << "x = " << targets[i];
    EXPECT_EQ(cell->particles()[0].y, i % 3 + 0.5);
  }
}

TEST(Mol3dTest, DefaultRunEndStatePinned) {
  // The default configuration's full run (forces, the integrator, the
  // periodic wrap and leaver hand-off), hashed with FNV-1a over the bit
  // patterns of every particle's six doubles in chare order. Any change to
  // the numerics, however small, moves the digest.
  const Mol3dConfig config;
  ASSERT_EQ(config.iterations, 40);
  AppRig rig{4};
  populate_mol3d(*rig.job, config);
  rig.run();
  std::uint64_t digest = 1469598103934665603ull;
  std::size_t total = 0;
  for (std::size_t c = 0; c < rig.job->num_chares(); ++c) {
    auto* cell =
        dynamic_cast<Mol3dChare*>(&rig.job->chare(static_cast<ChareId>(c)));
    ASSERT_NE(cell, nullptr);
    for (const Particle& p : cell->particles()) {
      for (const double v : {p.x, p.y, p.z, p.vx, p.vy, p.vz}) {
        const auto word = std::bit_cast<std::uint64_t>(v);
        for (int b = 0; b < 8; ++b) {
          digest ^= (word >> (8 * b)) & 0xffu;
          digest *= 1099511628211ull;
        }
      }
      ++total;
    }
  }
  EXPECT_EQ(total, static_cast<std::size_t>(config.num_particles));
  EXPECT_EQ(digest, 0x52e35c6be857b841ull) << std::hex << digest;
}

void populate_small_mol3d(RuntimeJob& job) { populate_mol3d(job, small_mol()); }

TEST(Mol3dTest, RejectsMalformedGhostMessages) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // Header: iteration, side, ghost count, leaver count; then 3 values per
  // ghost and 6 per leaver.
  const std::vector<std::vector<double>> malformed = {
      {},
      {0.0, 1.0, 0.0},
      {0.0, -1.0, 0.0, 0.0},
      {0.0, 6.0, 0.0, 0.0},
      {0.0, 2.5, 0.0, 0.0},
      {0.0, nan, 0.0, 0.0},
      {nan, 1.0, 0.0, 0.0},
      {2.0, 1.0, 0.0, 0.0},
      {0.0, 1.0, nan, 0.0},
      {0.0, 1.0, 0.0, nan},
      {0.0, 1.0, 1.0, 0.0},  // a ghost short
      {0.0, 1.0, 0.0, 0.0, 0.5},
      {0.0, 1.0, 1e300, 0.0},
      // Counts that add up to the size, though one is not a count.
      {0.0, 1.0, -2.0, 1.0},
      {0.0, 1.0, 2.0 / 3.0, 0.0, 0.5, 0.5},
  };
  for (const std::vector<double>& data : malformed) {
    MalformedRig m{populate_small_mol3d};
    EXPECT_THROW(m.deliver(kMolGhost, data), CheckFailure)
        << data.size() << " values";
  }
  // Well-formed ghosts, for this iteration and the next, are accepted.
  MalformedRig m{populate_small_mol3d};
  m.deliver(kMolGhost, {0.0, 1.0, 1.0, 0.0, 0.5, 0.5, 0.5});
  m.deliver(kMolGhost, {1.0, 2.0, 0.0, 1.0, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0});
  // The same (iteration, side) again is a duplicate, rejected before its
  // payload is taken over; the error names the tag and the side.
  Message dup;
  dup.src = 1;
  dup.dest = 0;
  dup.tag = kMolGhost;
  dup.data = {0.0, 1.0, 0.0, 0.0};
  try {
    m.rig.job->chare(0).execute(dup);
    ADD_FAILURE() << "duplicate ghost accepted";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate ghost for side 1"), std::string::npos)
        << what;
    EXPECT_NE(what.find("tag 1"), std::string::npos) << what;
  }
  EXPECT_EQ(dup.data.size(), 4u);
  // The other side of the next iteration is still free.
  m.deliver(kMolGhost, {1.0, 3.0, 0.0, 0.0});
}

TEST(Mol3dTest, RejectsMalformedComputeMessages) {
  MalformedRig m{populate_small_mol3d};
  EXPECT_THROW(m.deliver(kMolCompute, {}), CheckFailure);
  EXPECT_THROW(m.deliver(kMolCompute, {1.0}), CheckFailure);
  EXPECT_THROW(m.deliver(kMolCompute, {0.0, 0.0}), CheckFailure);
  EXPECT_THROW(
      m.deliver(kMolCompute, {std::numeric_limits<double>::quiet_NaN()}),
      CheckFailure);
}

// ------------------------------------------------------------- app factory

TEST(AppFactoryTest, PopulatesEachApp) {
  for (const auto& name : app_names()) {
    AppRig rig{4};
    AppSpec spec;
    spec.name = name;
    spec.iterations = 2;
    populate_app(*rig.job, spec);
    EXPECT_GE(rig.job->num_chares(), 4u) << name;
  }
}

TEST(AppFactoryTest, UnknownAppThrows) {
  AppRig rig{1};
  AppSpec spec;
  spec.name = "nbody-gpu";
  EXPECT_THROW(populate_app(*rig.job, spec), CheckFailure);
}

TEST(AppFactoryTest, WorkScaleMultipliesCost) {
  auto cpu = [](double scale) {
    AppRig rig{4};
    AppSpec spec;
    spec.name = "jacobi2d";
    spec.iterations = 2;
    spec.work_scale = scale;
    populate_app(*rig.job, spec);
    rig.job->start();
    rig.sim.run();
    return rig.job->cpu_consumed().to_seconds();
  };
  EXPECT_NEAR(cpu(2.0) / cpu(1.0), 2.0, 0.1);
}

}  // namespace
}  // namespace cloudlb
