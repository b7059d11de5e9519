#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/scenario.h"
#include "lb/greedy_lb.h"
#include "machine/machine.h"
#include "runtime/chare.h"
#include "runtime/job.h"
#include "runtime/network.h"
#include "runtime/sharded_runtime.h"
#include "support/single_engine_scenario.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/validate.h"
#include "vm/virtual_machine.h"

// Differential tier for the shard-partitioned runtime: the same scenario
// run by the test-only single-Simulator reference
// (support/single_engine_scenario.h) and by run_scenario on
// ShardedRuntimeHost must produce bit-identical aggregate metrics for every
// shard count and worker count (docs/sharded-engine.md). The grid is
// seeded; set CLOUDLB_SHARD_SEED_BASE to shift all 256 scenarios to a
// fresh region of the configuration space.

namespace cloudlb {
namespace {

std::uint64_t seed_base() {
  const char* env = std::getenv("CLOUDLB_SHARD_SEED_BASE");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

/// Bit pattern of a double: "equal" below means *identical*, not close.
std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  static_assert(sizeof(b) == sizeof(v));
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

/// Everything a RunResult says, flattened to exactly comparable integers.
struct Metrics {
  std::int64_t app_ns = 0;
  std::int64_t bg_ns = -1;  ///< -1 when no background job ran
  std::uint64_t energy_bits = 0;
  std::uint64_t power_bits = 0;
  std::int64_t tasks = 0;
  std::int64_t messages = 0;
  std::int64_t migrated_bytes = 0;
  int lb_steps = 0;
  int migrations = 0;
  int retries = 0;
  int failed = 0;

  friend bool operator==(const Metrics& a, const Metrics& b) {
    return std::tie(a.app_ns, a.bg_ns, a.energy_bits, a.power_bits, a.tasks,
                    a.messages, a.migrated_bytes, a.lb_steps, a.migrations,
                    a.retries, a.failed) ==
           std::tie(b.app_ns, b.bg_ns, b.energy_bits, b.power_bits, b.tasks,
                    b.messages, b.migrated_bytes, b.lb_steps, b.migrations,
                    b.retries, b.failed);
  }

  friend std::ostream& operator<<(std::ostream& os, const Metrics& m) {
    return os << "{app_ns=" << m.app_ns << " bg_ns=" << m.bg_ns
              << " energy=" << m.energy_bits << " power=" << m.power_bits
              << " tasks=" << m.tasks << " messages=" << m.messages
              << " bytes=" << m.migrated_bytes << " lb=" << m.lb_steps
              << " mig=" << m.migrations << " retries=" << m.retries
              << " failed=" << m.failed << "}";
  }
};

Metrics metrics_of(const RunResult& r) {
  Metrics m;
  m.app_ns = r.app_elapsed.ns();
  if (r.bg_elapsed.has_value()) m.bg_ns = r.bg_elapsed->ns();
  m.energy_bits = bits(r.energy_joules);
  m.power_bits = bits(r.avg_power_watts);
  m.tasks = r.app_counters.tasks_executed;
  m.messages = r.app_counters.messages_sent;
  m.migrated_bytes = r.app_counters.migrated_bytes;
  m.lb_steps = r.app_counters.lb_steps;
  m.migrations = r.app_counters.migrations;
  m.retries = r.app_counters.migration_retries;
  m.failed = r.app_counters.migrations_failed;
  return m;
}

/// One random multi-node scenario. Small on purpose — the grid runs each
/// one up to nine times — but varied where variation stresses the
/// partition: heterogeneous core speeds break PE symmetry, >= 2 chares
/// per PE keeps migrations meaningful, background jobs exercise the
/// two-job barrier bookkeeping, staggered BG starts exercise timed
/// actions landing between windows.
ScenarioConfig scenario_for(Rng& rng) {
  ScenarioConfig cfg;
  cfg.machine.cores_per_node = static_cast<int>(rng.uniform_int(2, 4));
  const int nodes = static_cast<int>(rng.uniform_int(2, 5));
  cfg.app_cores = nodes * cfg.machine.cores_per_node;
  if (rng.next_double() < 0.3) {
    const int overrides = static_cast<int>(rng.uniform_int(1, 3));
    for (int i = 0; i < overrides; ++i)
      cfg.machine.core_speed_overrides.emplace_back(
          static_cast<int>(rng.uniform_int(0, cfg.app_cores - 1)),
          rng.uniform(0.6, 1.4));
  }

  cfg.app.name = rng.next_double() < 0.5 ? "jacobi2d" : "wave2d";
  cfg.app.iterations = static_cast<int>(rng.uniform_int(6, 9));
  cfg.app.blocks_x = 8;
  cfg.app.blocks_y = std::max(3, (2 * cfg.app_cores + 7) / 8);
  cfg.app.work_scale = rng.uniform(0.5, 1.5);

  cfg.balancer = rng.next_double() < 0.8 ? "ia-refine" : "greedy";
  cfg.lb_period = static_cast<int>(rng.uniform_int(2, 4));
  cfg.job.migration_max_retries = static_cast<int>(rng.uniform_int(0, 2));

  cfg.with_background = rng.next_double() < 0.5;
  cfg.bg_cores = 2;
  cfg.bg_iterations = static_cast<int>(rng.uniform_int(8, 20));
  if (rng.next_double() < 0.4)
    cfg.bg_start = SimTime::millis(rng.uniform_int(1, 15));

  cfg.shards = 1;
  cfg.shard_workers = 0;
  return cfg;
}

/// Outcome of one sharded run: metrics, or the documented loud refusal
/// (a barrier cascade completed inside a window some engine had already
/// run past — the "LB cadence shorter than the window" case, which the
/// runtime rejects rather than approximate).
struct Outcome {
  std::optional<Metrics> metrics;
  std::string refusal;  ///< the CheckFailure message when refused

  friend bool operator==(const Outcome& a, const Outcome& b) {
    // Two refusals match regardless of message detail: the *decision* to
    // refuse must be worker-count independent, the text may name times.
    return a.metrics == b.metrics;
  }
};

Outcome run_outcome(const ScenarioConfig& cfg) {
  try {
    return Outcome{metrics_of(run_scenario(cfg)), {}};
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    // Only the documented refusal is acceptable; anything else is a bug
    // and must fail the test.
    if (what.find("rewind_clock past executed work") == std::string::npos)
      throw;
    return Outcome{std::nullopt, what};
  }
}

class ShardedGridTest : public ::testing::TestWithParam<int> {};

TEST_P(ShardedGridTest, MetricsMatchLegacyBitForBit) {
  const std::uint64_t seed =
      seed_base() * 9'000'011ull + static_cast<std::uint64_t>(GetParam());
  Rng rng{seed};
  const ScenarioConfig base = scenario_for(rng);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " app=" + base.app.name +
               " cores=" + std::to_string(base.app_cores) + " bg=" +
               std::to_string(base.with_background));

  // The single-engine reference must always complete.
  const Metrics legacy = metrics_of(run_single_engine_scenario(base));
  EXPECT_GT(legacy.tasks, 0);

  // At one shard the worker count is inert: no team is built.
  for (const int shards : {1, 2, 4, 7}) {
    ScenarioConfig cfg = base;
    cfg.shards = shards;
    cfg.shard_workers = 1;
    const Outcome serial = run_outcome(cfg);
    cfg.shard_workers = 3;
    const Outcome parallel = run_outcome(cfg);

    // Serial and parallel windows must agree on the outcome — refusal is
    // a function of event times, which are worker-count independent.
    EXPECT_EQ(serial, parallel)
        << "serial/parallel diverged at " << shards << " shards";

    if (serial.metrics.has_value()) {
      EXPECT_EQ(*serial.metrics, legacy)
          << "sharded run diverged from legacy at " << shards << " shards";
    } else {
      // One shard is the default run_scenario path; it must not refuse.
      EXPECT_NE(shards, 1) << "one-shard run refused: " << serial.refusal;
      // A cascade can only be outrun by traffic that keeps executing
      // while the app waits at its barrier — without a background job
      // every engine quiesces behind the wave and rewind always succeeds.
      EXPECT_TRUE(base.with_background)
          << "refusal without background traffic: " << serial.refusal;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardedGridTest, ::testing::Range(0, 256));

// The refusal path must stay the rare exception, or the differential tier
// stops being one. Self-contained on purpose: gtest_discover_tests runs
// every test in its own process, so no cross-test tally can survive to a
// final test — instead this re-runs the grid's 256 scenarios at the
// cheapest sharded column (2 shards, serial windows, no legacy reference)
// and counts outcomes directly.
TEST(ShardedGridTally, RefusalsStayTheRareException) {
  int completed = 0;
  int refused = 0;
  for (int param = 0; param < 256; ++param) {
    const std::uint64_t seed =
        seed_base() * 9'000'011ull + static_cast<std::uint64_t>(param);
    Rng rng{seed};
    ScenarioConfig cfg = scenario_for(rng);
    cfg.shards = 2;
    cfg.shard_workers = 1;
    const Outcome o = run_outcome(cfg);
    if (o.metrics.has_value()) {
      ++completed;
    } else {
      ++refused;
      EXPECT_TRUE(cfg.with_background)
          << "seed " << seed
          << " refused without background traffic: " << o.refusal;
    }
  }
  ASSERT_EQ(completed + refused, 256);
  EXPECT_GE(completed, 230) << refused << " of 256 seeds refused";
}

// ------------------------------------------------------------ edge cases

/// Reference-vs-host comparison for one explicit machine shape.
void expect_shape_matches(int nodes, int cores_per_node, int shards) {
  ScenarioConfig cfg;
  cfg.machine.cores_per_node = cores_per_node;
  cfg.app_cores = nodes * cores_per_node;
  cfg.app.name = "jacobi2d";
  cfg.app.iterations = 6;
  cfg.app.blocks_x = 8;
  cfg.app.blocks_y = std::max(3, (2 * cfg.app_cores + 7) / 8);
  cfg.lb_period = 3;
  cfg.with_background = false;
  const Metrics legacy = metrics_of(run_single_engine_scenario(cfg));

  cfg.shards = shards;
  for (const int workers : {1, 3}) {
    cfg.shard_workers = workers;
    EXPECT_EQ(metrics_of(run_scenario(cfg)), legacy)
        << nodes << " nodes / " << shards << " shards / " << workers
        << " workers";
  }
}

TEST(ShardedEdgeTest, NodesNotDivisibleByShards) {
  // 5 nodes over 2 shards: block map gives 3 + 2; 7 over 3: 3 + 2 + 2.
  expect_shape_matches(/*nodes=*/5, /*cores_per_node=*/2, /*shards=*/2);
  expect_shape_matches(/*nodes=*/7, /*cores_per_node=*/2, /*shards=*/3);
}

TEST(ShardedEdgeTest, MoreShardsThanNodes) {
  // Clamped to one shard per node; still bit-identical to legacy.
  expect_shape_matches(/*nodes=*/3, /*cores_per_node=*/2, /*shards=*/64);
}

TEST(ShardedEdgeTest, SingleNodeShards) {
  // Exactly one node per shard: every cross-node message crosses shards.
  expect_shape_matches(/*nodes=*/4, /*cores_per_node=*/2, /*shards=*/4);
}

TEST(ShardedEdgeTest, SingleNodeMachineClampsToOneShard) {
  // One node cannot be partitioned: the host clamps --shards to one
  // shard, where the worker count is inert.
  ScenarioConfig cfg;
  cfg.machine.cores_per_node = 4;
  cfg.app_cores = 4;
  cfg.app.iterations = 6;
  cfg.app.blocks_x = 4;
  cfg.app.blocks_y = 2;
  cfg.with_background = false;
  const Metrics legacy = metrics_of(run_single_engine_scenario(cfg));
  cfg.shards = 8;
  cfg.shard_workers = 2;
  EXPECT_EQ(metrics_of(run_scenario(cfg)), legacy);
}

// ------------------------------- one-shard host: tenants and observers

/// A small seeded public-cloud scenario: a tenant field, with or without
/// the 2-core background job.
ScenarioConfig tenant_scenario(std::uint64_t seed, bool with_background) {
  ScenarioConfig cfg;
  cfg.app_cores = 8;
  cfg.app.name = seed % 2 == 0 ? "jacobi2d" : "mol3d";
  cfg.app.iterations = 12;
  cfg.app.seed = seed;
  cfg.lb_period = 3;
  cfg.bg_iterations = 30;
  cfg.with_background = with_background;
  cfg.tenants = 4;
  cfg.tenant_config.mean_on_seconds = 0.05;
  cfg.tenant_config.mean_off_seconds = 0.05;
  cfg.tenant_config.seed = 17 + seed;
  return cfg;
}

TEST(OneShardHostTest, TenantScenariosMatchSingleEngine) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    for (const bool bg : {false, true}) {
      const ScenarioConfig cfg = tenant_scenario(seed, bg);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " bg=" + std::to_string(bg));
      const Metrics legacy = metrics_of(run_single_engine_scenario(cfg));
      EXPECT_GT(legacy.migrations, 0);
      EXPECT_EQ(metrics_of(run_scenario(cfg)), legacy);
    }
  }
}

TEST(OneShardHostTest, TracerCsvMatchesSingleEngine) {
  for (const bool bg : {false, true}) {
    SCOPED_TRACE("bg=" + std::to_string(bg));
    const ScenarioConfig cfg = tenant_scenario(0, bg);
    TimelineTracer reference;
    TimelineTracer host;
    run_single_engine_scenario(cfg, &reference);
    run_scenario(cfg, &host);
    std::ostringstream want;
    std::ostringstream got;
    reference.write_csv(want);
    host.write_csv(got);
    EXPECT_FALSE(host.lb_marks().empty());
    EXPECT_EQ(got.str(), want.str());
  }
}

TEST(OneShardHostTest, MultiShardObserverIsRefused) {
  ScenarioConfig cfg;
  cfg.machine.cores_per_node = 2;
  cfg.app_cores = 4;
  cfg.app.iterations = 4;
  cfg.app.blocks_x = 4;
  cfg.app.blocks_y = 2;
  cfg.with_background = false;
  cfg.shards = 2;
  TimelineTracer tracer;
  EXPECT_THROW(run_scenario(cfg, &tracer), CheckFailure);
  cfg.shards = 1;
  EXPECT_NO_THROW(run_scenario(cfg, &tracer));
}

// --------------------------------------- direct-host structural checks

TEST(ShardedHostTest, BlockPartitionIsMonotoneAndBalanced) {
  MachineConfig mc;
  mc.nodes = 8;
  mc.cores_per_node = 2;
  ShardedRuntimeHost::Config hc;
  hc.shards = 3;
  ShardedRuntimeHost host{mc, hc};
  std::vector<int> counts(3, 0);
  int prev = 0;
  for (int node = 0; node < 8; ++node) {
    const int s = host.shard_of_node(node);
    ASSERT_GE(s, prev);  // contiguous blocks
    ASSERT_LT(s, 3);
    prev = s;
    ++counts[static_cast<std::size_t>(s)];
  }
  // Near-equal: 8 nodes over 3 shards is 3 + 3 + 2 in some order.
  EXPECT_EQ(counts[0] + counts[1] + counts[2], 8);
  for (const int c : counts) EXPECT_GE(c, 2);
  EXPECT_EQ(host.shard_of_node(0), host.shard_of_node(1));
  EXPECT_NE(host.shard_of_node(0), host.shard_of_node(7));
  // Cores follow their node.
  EXPECT_EQ(host.shard_of_core(15), host.shard_of_node(7));
}

/// Chare that syncs every iteration — with per-iteration costs far below
/// the 60 µs window, whole AtSync waves complete inside single windows,
/// forcing the rewind-recovery path on every period.
class TinyWorker final : public Chare {
 public:
  TinyWorker(int iterations, SimTime cost)
      : iterations_{iterations}, cost_{cost} {}
  void on_start() override { send(id(), 0, {}); }
  SimTime cost(const Message&) const override { return cost_; }
  void execute(Message&) override {
    ++iter_;
    if (iter_ >= iterations_) {
      finish();
      return;
    }
    at_sync();
  }
  void on_resume_sync() override { send(id(), 0, {}); }
  std::size_t footprint_bytes() const override { return 1024; }

 private:
  int iterations_;
  SimTime cost_;
  int iter_ = 0;
};

TEST(ShardedHostTest, InWindowCascadesRecoverByRewind) {
  // 1 µs tasks against a 60 µs window: every LB wave completes in-window
  // and must be recovered exactly (counted via the host's rewind counter).
  // Validation arms the engines' monotone-order check: the recovered
  // barrier's work must carry the last at_sync's rank, as on one engine.
  const ValidationScope validate{true};
  MachineConfig mc;
  mc.nodes = 4;
  mc.cores_per_node = 2;
  ShardedRuntimeHost::Config hc;
  hc.shards = 4;
  hc.window = shard_window_width(JobConfig{}.network);
  ShardedRuntimeHost host{mc, hc};
  std::vector<CoreId> ids(8);
  std::iota(ids.begin(), ids.end(), 0);
  VirtualMachine vm{host.machine(), "app", ids};
  JobConfig jc;
  jc.lb_period = 2;
  RuntimeJob job{host, vm, jc, std::make_unique<GreedyLb>()};
  for (int i = 0; i < 16; ++i)
    static_cast<void>(job.add_chare(
        std::make_unique<TinyWorker>(8, SimTime::micros(i % 3 + 1))));
  job.start();
  host.drive(10'000'000);
  EXPECT_TRUE(job.finished());
  EXPECT_GT(host.rewinds(), 0u);
  job.validate_invariants();
}

TEST(ShardedHostTest, MonotonePerShardClocksAndDenseAssignments) {
  MachineConfig mc;
  mc.nodes = 3;
  mc.cores_per_node = 2;
  ShardedRuntimeHost::Config hc;
  hc.shards = 3;
  hc.window = shard_window_width(JobConfig{}.network);
  ShardedRuntimeHost host{mc, hc};

  // Per-shard clocks may only move forward, window after window.
  std::vector<SimTime> last(3, SimTime::zero());
  bool monotone = true;
  host.sharded().set_trace_hook(
      [&last, &monotone](SimTime t, int shard, std::uint64_t) {
        if (t < last[static_cast<std::size_t>(shard)]) monotone = false;
        last[static_cast<std::size_t>(shard)] = t;
      });

  std::vector<CoreId> ids(6);
  std::iota(ids.begin(), ids.end(), 0);
  VirtualMachine vm{host.machine(), "app", ids};
  JobConfig jc;
  jc.lb_period = 4;
  RuntimeJob job{host, vm, jc, std::make_unique<GreedyLb>()};
  for (int i = 0; i < 12; ++i)
    static_cast<void>(job.add_chare(std::make_unique<TinyWorker>(
        10, SimTime::micros(40 * (i % 4 + 1)))));
  job.start();
  host.drive(10'000'000);

  ASSERT_TRUE(job.finished());
  EXPECT_TRUE(monotone) << "a shard executed an event before its clock";

  // Dense assignment: every chare mapped to a real PE, none lost.
  std::int64_t tasks = 0;
  for (std::size_t c = 0; c < job.num_chares(); ++c) {
    const PeId pe = job.pe_of(static_cast<ChareId>(c));
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, static_cast<PeId>(vm.num_vcpus()));
  }
  // Task conservation: 12 chares × 10 iterations, each exactly once.
  tasks = job.counters().tasks_executed;
  EXPECT_EQ(tasks, 12 * 10);
  job.validate_invariants();
}

}  // namespace
}  // namespace cloudlb
