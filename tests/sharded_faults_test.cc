#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "apps/jacobi2d.h"
#include "core/interference_aware_lb.h"
#include "core/scenario.h"
#include "faults/fault_injector.h"
#include "faults/fault_spec.h"
#include "machine/machine.h"
#include "runtime/job.h"
#include "runtime/network.h"
#include "runtime/sharded_runtime.h"
#include "sim/simulator.h"
#include "support/single_engine_scenario.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "vm/virtual_machine.h"

// Fault injection × the shard-partitioned runtime: seeded random fault
// plans run the same multi-node scenario on the legacy engine and under
// --shards=4, and must agree bit-for-bit — the injector's install-time
// draws and serialized hooks make the fault schedule shard-independent
// (runtime/fault_hooks.h). On top of the differential check, each sharded
// run is held to the core fault-tier invariants: no chare lost or
// duplicated across shard boundaries (bit-exact Jacobi blocks against the
// serial reference), dense assignments, sane counters.

namespace cloudlb {
namespace {

std::uint64_t seed_base() {
  const char* env = std::getenv("CLOUDLB_SHARD_SEED_BASE");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// Random plan over every model class (mirrors the legacy fault grid).
std::string random_fault_spec(Rng& rng, std::uint64_t seed) {
  std::ostringstream spec;
  spec << "seed(value=" << seed << ")";
  if (rng.next_double() < 0.4)
    spec << ";spike(core=" << rng.uniform_int(0, 7)
         << ",start=" << rng.uniform(0.0, 0.002)
         << ",duration=" << rng.uniform(0.0, 0.01)
         << ",duty=" << rng.uniform(0.0, 1.0) << ")";
  if (rng.next_double() < 0.3) {
    const double period = rng.uniform(0.001, 0.01);
    spec << ";square(core=" << rng.uniform_int(0, 7)
         << ",start=" << rng.uniform(0.0, 0.002) << ",period=" << period
         << ",on=" << rng.uniform(0.0, period)
         << ",duty=" << rng.uniform(0.0, 1.0) << ")";
  }
  if (rng.next_double() < 0.25)
    spec << ";pareto(cores=" << rng.uniform_int(0, 2)
         << ",alpha=" << rng.uniform(1.1, 3.0)
         << ",min_on=" << rng.uniform(0.0001, 0.002)
         << ",mean_off=" << rng.uniform(0.002, 0.02)
         << ",duty=" << rng.uniform(0.0, 1.0) << ")";
  if (rng.next_double() < 0.5)
    spec << ";drop(prob=" << rng.uniform(0.0, 0.5) << ")";
  if (rng.next_double() < 0.5)
    spec << ";stale(prob=" << rng.uniform(0.0, 0.5) << ")";
  if (rng.next_double() < 0.5) {
    const char* const modes[] = {"negative", "nan", "overflow", "mixed"};
    spec << ";corrupt(prob=" << rng.uniform(0.0, 0.4)
         << ",mode=" << modes[rng.uniform_int(0, 3)] << ")";
  }
  if (rng.next_double() < 0.4)
    spec << ";jitter(sigma=" << rng.uniform(0.0, 0.0005) << ")";
  if (rng.next_double() < 0.6)
    spec << ";failmig(prob=" << rng.uniform(0.0, 1.0)
         << ",partial=" << rng.uniform(0.0, 1.0) << ")";
  return spec.str();
}

constexpr int kNodes = 4;
constexpr int kCoresPerNode = 2;
constexpr int kCores = kNodes * kCoresPerNode;
constexpr int kChares = 16;
constexpr int kIterations = 8;

Jacobi2dConfig app_config() {
  Jacobi2dConfig config;
  config.layout.grid_x = 32;
  config.layout.grid_y = 32;
  config.layout.blocks_x = 4;
  config.layout.blocks_y = 4;
  config.layout.iterations = kIterations;
  // ~2 tasks per window width: waves spread over several windows, so
  // cascades mostly complete in exact global phases (rewinds stay rare).
  config.layout.sec_per_point = 2e-6;
  return config;
}

JobConfig job_config(Rng& rng, FaultInjector* faults) {
  JobConfig jc;
  jc.lb_period = 2;
  jc.faults = faults;
  jc.migration_max_retries = static_cast<int>(rng.uniform_int(0, 3));
  return jc;
}

struct HarvestedBlock {
  int x0 = 0, y0 = 0, nx = 0, ny = 0;
  std::vector<double> values;

  friend bool operator==(const HarvestedBlock& a, const HarvestedBlock& b) {
    return a.x0 == b.x0 && a.y0 == b.y0 && a.nx == b.nx && a.ny == b.ny &&
           a.values == b.values;
  }
};

struct FaultedRun {
  bool refused = false;
  std::int64_t finish_ns = 0;
  RuntimeJob::Counters counters;
  std::vector<PeId> assignment;
  std::vector<HarvestedBlock> blocks;  ///< per-chare final state
};

void harvest(RuntimeJob& job, FaultedRun& out) {
  out.finish_ns = job.finish_time().ns();
  out.counters = job.counters();
  for (std::size_t c = 0; c < job.num_chares(); ++c) {
    out.assignment.push_back(job.pe_of(static_cast<ChareId>(c)));
    auto* chare =
        dynamic_cast<Jacobi2dChare*>(&job.chare(static_cast<ChareId>(c)));
    ASSERT_NE(chare, nullptr);
    out.blocks.push_back(HarvestedBlock{chare->x0(), chare->y0(),
                                        chare->nx(), chare->ny(),
                                        chare->block_values()});
  }
}

/// The scenario on the legacy single engine (the reference).
FaultedRun run_legacy(std::uint64_t rig_seed, const std::string& spec) {
  Rng rng{rig_seed};
  FaultInjector injector{FaultPlan::parse(spec)};
  Simulator sim;
  MachineConfig mc;
  mc.nodes = kNodes;
  mc.cores_per_node = kCoresPerNode;
  Machine machine{sim, mc};
  std::vector<CoreId> ids(kCores);
  std::iota(ids.begin(), ids.end(), 0);
  VirtualMachine vm{machine, "app", ids};
  RuntimeJob job{sim, vm, job_config(rng, &injector),
                 std::make_unique<InterferenceAwareRefineLb>()};
  populate_jacobi2d(job, app_config());
  injector.install_interference(sim, machine);
  job.start();
  std::uint64_t steps = 0;
  while (!job.finished()) {
    CLB_CHECK(sim.step());
    CLB_CHECK_MSG(++steps < 50'000'000ull, "legacy run livelocked");
  }
  FaultedRun out;
  harvest(job, out);
  return out;
}

/// The same scenario under --shards=4. A loud refusal (an in-window
/// cascade some hog had already run past) is a documented outcome, not a
/// failure — but it must be rare and worker-count independent.
FaultedRun run_sharded(std::uint64_t rig_seed, const std::string& spec,
                       int workers) {
  Rng rng{rig_seed};
  FaultInjector injector{FaultPlan::parse(spec)};
  MachineConfig mc;
  mc.nodes = kNodes;
  mc.cores_per_node = kCoresPerNode;
  ShardedRuntimeHost::Config hc;
  hc.shards = 4;
  hc.window = shard_window_width(JobConfig{}.network);
  hc.parallel = workers > 1;
  hc.workers = workers;
  ShardedRuntimeHost host{mc, hc};
  std::vector<CoreId> ids(kCores);
  std::iota(ids.begin(), ids.end(), 0);
  VirtualMachine vm{host.machine(), "app", ids};
  RuntimeJob job{host, vm, job_config(rng, &injector),
                 std::make_unique<InterferenceAwareRefineLb>()};
  populate_jacobi2d(job, app_config());
  injector.install_interference(
      host.machine(),
      [&host](CoreId core) -> EngineCore& { return host.engine_of_core(core); });
  job.start();
  FaultedRun out;
  try {
    host.drive(50'000'000);
  } catch (const CheckFailure& e) {
    if (std::string{e.what()}.find("rewind_clock past executed work") ==
        std::string::npos)
      throw;
    out.refused = true;
    return out;
  }
  harvest(job, out);
  job.validate_invariants();
  return out;
}

void expect_equal(const FaultedRun& a, const FaultedRun& b,
                  const char* label) {
  EXPECT_EQ(a.finish_ns, b.finish_ns) << label;
  EXPECT_EQ(a.counters.tasks_executed, b.counters.tasks_executed) << label;
  EXPECT_EQ(a.counters.messages_sent, b.counters.messages_sent) << label;
  EXPECT_EQ(a.counters.lb_steps, b.counters.lb_steps) << label;
  EXPECT_EQ(a.counters.migrations, b.counters.migrations) << label;
  EXPECT_EQ(a.counters.migrated_bytes, b.counters.migrated_bytes) << label;
  EXPECT_EQ(a.counters.migration_retries, b.counters.migration_retries)
      << label;
  EXPECT_EQ(a.counters.migrations_failed, b.counters.migrations_failed)
      << label;
  EXPECT_EQ(a.assignment, b.assignment) << label;
  EXPECT_EQ(a.blocks, b.blocks) << label;
}

class ShardedFaultTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedFaultTest, FaultScheduleIsShardIndependent) {
  const std::uint64_t seed =
      seed_base() * 7'000'003ull + static_cast<std::uint64_t>(GetParam());
  Rng rng{seed};
  const std::string spec = random_fault_spec(rng, seed);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " spec=\"" + spec + "\"");

  const FaultedRun serial = run_sharded(seed, spec, /*workers=*/1);
  const FaultedRun parallel = run_sharded(seed, spec, /*workers=*/3);
  EXPECT_EQ(serial.refused, parallel.refused)
      << "refusal must not depend on the worker count";
  if (serial.refused) return;

  expect_equal(serial, parallel, "serial vs parallel windows");

  const FaultedRun legacy = run_legacy(seed, spec);
  expect_equal(serial, legacy, "sharded vs legacy engine");

  // No chare lost or duplicated across shard boundaries: the computation
  // is bit-exact against the serial (no-runtime) reference even with
  // failed and partially-failed migrations in the plan.
  const auto reference = jacobi2d_reference(app_config());
  ASSERT_EQ(serial.blocks.size(), static_cast<std::size_t>(kChares));
  for (std::size_t c = 0; c < serial.blocks.size(); ++c) {
    const HarvestedBlock& block = serial.blocks[c];
    for (int y = 0; y < block.ny; ++y)
      for (int x = 0; x < block.nx; ++x)
        ASSERT_EQ(
            block.values[static_cast<std::size_t>(y * block.nx + x)],
            reference[static_cast<std::size_t>(block.y0 + y) * 32 +
                      static_cast<std::size_t>(block.x0 + x)])
            << "chare " << c << " diverged from the serial reference";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedFaultTest, ::testing::Range(0, 64));

// Interference pinned into two *different* shards: installation must bind
// each hog to its core's engine, and the schedule must still match the
// legacy engine exactly.
TEST(ShardedFaultTest, CrossShardInterferenceMatchesLegacy) {
  const std::string spec =
      "spike(core=0,start=0.0005,duration=0.01,duty=0.8);"
      "square(core=7,start=0.001,period=0.004,on=0.002,duty=0.6);"
      "seed(value=42)";
  const FaultedRun legacy = run_legacy(/*rig_seed=*/1, spec);
  const FaultedRun sharded = run_sharded(/*rig_seed=*/1, spec, /*workers=*/2);
  ASSERT_FALSE(sharded.refused);
  expect_equal(sharded, legacy, "pinned cross-shard interference");
}

// Failed migrations retried across shards: retries that fail at the same
// instant redraw their fault verdicts in one order on every shard count,
// the order of the single-engine reference.
// This once diverged (3370 / 3389 / 3377 migrations for shards 1 / 2 / 4):
// the global phase broke cross-engine ties by shard index instead of by
// (time, stamp, rank), arrivals scheduled across engines lost the
// scheduling event's rank, and simultaneous retries had no chare order.
TEST(ShardedFaultTest, FailedMigrationRetriesAreShardIndependent) {
  ScenarioConfig config;
  config.app.name = "jacobi2d";
  config.app.iterations = 40;
  config.app_cores = 32;
  config.balancer = "greedy";
  config.lb_period = 5;
  config.bg_iterations = 100;
  config.job.migration_max_retries = 2;
  config.faults = "failmig(prob=0.3);seed(value=7)";
  const RunResult reference = run_single_engine_scenario(config);
  EXPECT_GT(reference.app_counters.migration_retries, 0);
  for (const int shards : {1, 2, 4}) {
    config.shards = shards;
    const RunResult r = run_scenario(config);
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_EQ(r.app_elapsed, reference.app_elapsed);
    EXPECT_EQ(r.bg_elapsed, reference.bg_elapsed);
    EXPECT_EQ(r.energy_joules, reference.energy_joules);
    EXPECT_EQ(r.app_counters.tasks_executed,
              reference.app_counters.tasks_executed);
    EXPECT_EQ(r.app_counters.messages_sent,
              reference.app_counters.messages_sent);
    EXPECT_EQ(r.app_counters.migrations, reference.app_counters.migrations);
    EXPECT_EQ(r.app_counters.migration_retries,
              reference.app_counters.migration_retries);
    EXPECT_EQ(r.app_counters.migrations_failed,
              reference.app_counters.migrations_failed);
  }
}

}  // namespace
}  // namespace cloudlb
