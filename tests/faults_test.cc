// The hardened fault tier: spec-parser contracts, injector semantics, the
// estimator and LB degradation paths, migration retry/abandon bookkeeping
// — and a 256-scenario property suite that runs randomized fault plans
// against a real Jacobi2D job and checks the invariants no fault is
// allowed to break:
//
//   1. no chare is ever lost or duplicated across a failed migration
//      (pinned bitwise against the serial Jacobi reference),
//   2. T_avg conservation (Eq. 1): reassignment moves load, never creates
//      or destroys it,
//   3. the simulator clock never regresses.
//
// The suite is seeded; set CLOUDLB_FAULT_SEED_BASE to shift all 256 worlds
// to a fresh region of seed space (the CI fault tier runs three bases).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>

#include "apps/jacobi2d.h"
#include "core/background_estimator.h"
#include "core/interference_aware_lb.h"
#include "faults/fault_injector.h"
#include "faults/fault_spec.h"
#include "machine/machine.h"
#include "runtime/job.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/rng.h"
#include "vm/virtual_machine.h"

namespace cloudlb {
namespace {

// ----------------------------------------------------------- spec parser

TEST(FaultSpecTest, ParsesEveryModelWithExplicitKeys) {
  const FaultPlan plan = FaultPlan::parse(
      "spike(core=2,start=0.5,duration=1,duty=0.75,weight=2);"
      "square(core=1,start=0.1,period=2,on=0.5,duty=0.5);"
      "pareto(cores=3,alpha=1.2,min_on=0.05,mean_off=0.7,duty=0.9);"
      "drop(prob=0.1);stale(prob=0.2);"
      "corrupt(prob=0.3,mode=nan);jitter(sigma=0.004);"
      "failmig(prob=0.4,partial=0.6);seed(value=42)");
  ASSERT_EQ(plan.spikes.size(), 1u);
  EXPECT_EQ(plan.spikes[0].core, 2);
  EXPECT_EQ(plan.spikes[0].start, SimTime::from_seconds(0.5));
  EXPECT_EQ(plan.spikes[0].duration, SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(plan.spikes[0].duty, 0.75);
  EXPECT_DOUBLE_EQ(plan.spikes[0].weight, 2.0);
  ASSERT_EQ(plan.squares.size(), 1u);
  EXPECT_EQ(plan.squares[0].on, SimTime::from_seconds(0.5));
  ASSERT_EQ(plan.paretos.size(), 1u);
  EXPECT_EQ(plan.paretos[0].cores, 3);
  EXPECT_DOUBLE_EQ(plan.paretos[0].alpha, 1.2);
  ASSERT_EQ(plan.drops.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.drops[0].prob, 0.1);
  ASSERT_EQ(plan.stales.size(), 1u);
  ASSERT_EQ(plan.corruptions.size(), 1u);
  EXPECT_EQ(plan.corruptions[0].mode, CorruptMode::kNan);
  ASSERT_EQ(plan.jitters.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.jitters[0].sigma_sec, 0.004);
  ASSERT_EQ(plan.migration_faults.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.migration_faults[0].partial, 0.6);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_FALSE(plan.empty());
}

TEST(FaultSpecTest, DefaultsApplyWhenKeysOmitted) {
  const FaultPlan plan = FaultPlan::parse("spike;failmig(prob=1)");
  ASSERT_EQ(plan.spikes.size(), 1u);
  EXPECT_DOUBLE_EQ(plan.spikes[0].duty, 1.0);
  EXPECT_DOUBLE_EQ(plan.migration_faults[0].partial, 0.5);
  EXPECT_EQ(plan.seed, 1u);
}

TEST(FaultSpecTest, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ;  ; ").empty());
}

TEST(FaultSpecTest, UnknownModelThrows) {
  EXPECT_THROW(FaultPlan::parse("spoke(core=1)"), CheckFailure);
}

TEST(FaultSpecTest, UnknownKeyThrows) {
  // A typo'd key must be an error, never a silently-inert fault.
  EXPECT_THROW(FaultPlan::parse("drop(probe=0.5)"), CheckFailure);
}

TEST(FaultSpecTest, DuplicateKeyThrows) {
  EXPECT_THROW(FaultPlan::parse("drop(prob=0.1,prob=0.2)"), CheckFailure);
}

TEST(FaultSpecTest, OutOfRangeProbabilityThrows) {
  EXPECT_THROW(FaultPlan::parse("drop(prob=1.5)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("failmig(prob=-0.1)"), CheckFailure);
}

TEST(FaultSpecTest, MalformedClausesThrow) {
  EXPECT_THROW(FaultPlan::parse("drop(prob=0.1"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("drop(prob)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("drop(prob=abc)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("square(on=2,period=1)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("corrupt(prob=0.1,mode=weird)"),
               CheckFailure);
  EXPECT_THROW(FaultPlan::parse("pareto(alpha=0)"), CheckFailure);
}

// A typo must fail at parse time — before any simulation runs — not abort
// mid-run inside an Rng precondition. Zero-intensity values (duty=0,
// duration=0, on=0) stay legal sweep points; impossible ones throw here.
TEST(FaultSpecTest, NonInertGarbageTimingThrowsAtParse) {
  EXPECT_THROW(FaultPlan::parse("pareto(mean_off=0)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("pareto(mean_off=-1)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("pareto(min_on=-0.1)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("spike(start=-1)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("spike(duration=-1)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("square(start=-1)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("square(period=0,on=0)"), CheckFailure);
  EXPECT_THROW(FaultPlan::parse("square(period=-1,on=0)"), CheckFailure);
  // The legal zero points still parse.
  EXPECT_EQ(FaultPlan::parse("spike(duration=0)").spikes.size(), 1u);
  EXPECT_EQ(FaultPlan::parse("square(on=0)").squares.size(), 1u);
  EXPECT_EQ(FaultPlan::parse("pareto(duty=0)").paretos.size(), 1u);
}

// ------------------------------------------------------- injector basics

LbStats two_pe_stats() {
  LbStats stats;
  stats.pes.resize(2);
  for (int p = 0; p < 2; ++p) {
    stats.pes[static_cast<std::size_t>(p)].pe = p;
    stats.pes[static_cast<std::size_t>(p)].core = p;
    stats.pes[static_cast<std::size_t>(p)].wall_sec = 10.0;
    stats.pes[static_cast<std::size_t>(p)].core_idle_sec = 4.0;
  }
  stats.chares.resize(4);
  for (int c = 0; c < 4; ++c) {
    auto& ch = stats.chares[static_cast<std::size_t>(c)];
    ch.chare = c;
    ch.pe = c % 2;
    ch.cpu_sec = 1.0 + c;
    ch.bytes = 1024;
    stats.pes[static_cast<std::size_t>(ch.pe)].task_cpu_sec += ch.cpu_sec;
  }
  return stats;
}

TEST(FaultInjectorTest, ZeroIntensityPlanIsInertAndTouchesNothing) {
  FaultInjector injector{FaultPlan::parse(
      "spike(duty=0);drop(prob=0);stale(prob=0);corrupt(prob=0);"
      "jitter(sigma=0);failmig(prob=0)")};
  EXPECT_TRUE(injector.inert());

  LbStats stats = two_pe_stats();
  const LbStats before = stats;
  injector.perturb_stats(stats);
  for (std::size_t c = 0; c < stats.chares.size(); ++c)
    EXPECT_EQ(stats.chares[c].cpu_sec, before.chares[c].cpu_sec);
  for (std::size_t p = 0; p < stats.pes.size(); ++p) {
    EXPECT_EQ(stats.pes[p].wall_sec, before.pes[p].wall_sec);
    EXPECT_EQ(stats.pes[p].core_idle_sec, before.pes[p].core_idle_sec);
  }
  EXPECT_EQ(injector.on_migration({0, 0, 1, 0}), MigrationFault::kNone);
  EXPECT_EQ(injector.counters().samples_dropped, 0);
  EXPECT_EQ(injector.counters().migration_faults, 0);
}

TEST(FaultInjectorTest, DropAtProbOneZeroesEveryRowAndRepairsPeSums) {
  FaultInjector injector{FaultPlan::parse("drop(prob=1)")};
  LbStats stats = two_pe_stats();
  injector.perturb_stats(stats);
  for (const ChareSample& ch : stats.chares) EXPECT_EQ(ch.cpu_sec, 0.0);
  // The per-PE task sums come from the same lost rows.
  for (const PeSample& pe : stats.pes) EXPECT_EQ(pe.task_cpu_sec, 0.0);
  EXPECT_EQ(injector.counters().samples_dropped, 4);
}

TEST(FaultInjectorTest, StaleReplaysTrueValuesOfThePreviousWindow) {
  FaultInjector injector{FaultPlan::parse("stale(prob=1)")};
  LbStats first = two_pe_stats();
  injector.perturb_stats(first);  // no previous window: a no-op
  EXPECT_EQ(injector.counters().samples_staled, 0);

  LbStats second = two_pe_stats();
  for (ChareSample& ch : second.chares) ch.cpu_sec *= 3.0;
  injector.perturb_stats(second);
  EXPECT_EQ(injector.counters().samples_staled, 4);
  const LbStats reference = two_pe_stats();
  for (std::size_t c = 0; c < second.chares.size(); ++c)
    EXPECT_DOUBLE_EQ(second.chares[c].cpu_sec, reference.chares[c].cpu_sec);
}

TEST(FaultInjectorTest, CorruptNegativeFailsTheSanityGate) {
  FaultInjector injector{FaultPlan::parse("corrupt(prob=1,mode=negative)")};
  LbStats stats = two_pe_stats();
  ASSERT_TRUE(stats_sane(stats));
  injector.perturb_stats(stats);
  EXPECT_EQ(injector.counters().pes_corrupted, 2);
  EXPECT_FALSE(stats_sane(stats));
  // Garbage in, bounded estimate out: the boundary clamp holds regardless.
  for (const double o : estimate_background_load(stats)) {
    EXPECT_GE(o, 0.0);
    EXPECT_LE(o, 10.0 + 1e-9);
  }
}

TEST(FaultInjectorTest, JitterKeepsReadingsNonNegative) {
  FaultInjector injector{FaultPlan::parse("jitter(sigma=100);seed(value=3)")};
  LbStats stats = two_pe_stats();
  injector.perturb_stats(stats);
  EXPECT_EQ(injector.counters().pes_jittered, 2);
  for (const PeSample& pe : stats.pes) {
    EXPECT_GE(pe.wall_sec, 0.0);
    EXPECT_GE(pe.core_idle_sec, 0.0);
  }
}

TEST(FaultInjectorTest, MigrationVerdictsFollowPartialSplit) {
  FaultInjector source{FaultPlan::parse("failmig(prob=1,partial=0)")};
  FaultInjector dest{FaultPlan::parse("failmig(prob=1,partial=1)")};
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(source.on_migration({i, 0, 1, 0}),
              MigrationFault::kFailAtSource);
    EXPECT_EQ(dest.on_migration({i, 0, 1, 0}), MigrationFault::kFailAtDest);
  }
  EXPECT_EQ(source.counters().migration_faults, 8);
}

TEST(FaultInjectorTest, SameSeedSamePerturbation) {
  auto run = [](std::uint64_t seed) {
    FaultInjector injector{FaultPlan::parse(
        "drop(prob=0.5);jitter(sigma=0.1);seed(value=" +
        std::to_string(seed) + ")")};
    LbStats stats = two_pe_stats();
    injector.perturb_stats(stats);
    return stats;
  };
  const LbStats a = run(9), b = run(9), c = run(10);
  bool differs = false;
  for (std::size_t i = 0; i < a.chares.size(); ++i) {
    EXPECT_EQ(a.chares[i].cpu_sec, b.chares[i].cpu_sec);
    differs |= a.chares[i].cpu_sec != c.chares[i].cpu_sec;
  }
  for (std::size_t p = 0; p < a.pes.size(); ++p) {
    EXPECT_EQ(a.pes[p].wall_sec, b.pes[p].wall_sec);
    differs |= a.pes[p].wall_sec != c.pes[p].wall_sec;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical perturbations";
}

// -------------------------------------- estimator boundary clamp (Eq. 2)

TEST(EstimatorClampTest, FiniteNegativeIdleCannotExceedTheWindow) {
  // Regression: wall − task − idle with idle < 0 used to exceed T_lb and
  // poison T_avg for every PE; the estimate is now clamped into [0, T_lb].
  PeSample pe;
  pe.wall_sec = 10.0;
  pe.task_cpu_sec = 3.0;
  pe.core_idle_sec = -5.0;  // corrupted counter: raw Eq. 2 gives 12 > T_lb
  const double estimate = estimate_background_load(pe);
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, pe.wall_sec);
  EXPECT_DOUBLE_EQ(estimate, 10.0);
}

TEST(EstimatorClampTest, OverflowingIdleIsClampedToTheWindow) {
  PeSample pe;
  pe.wall_sec = 10.0;
  pe.task_cpu_sec = 1.0;
  pe.core_idle_sec = -1e300;
  EXPECT_DOUBLE_EQ(estimate_background_load(pe), 10.0);
}

TEST(EstimatorClampTest, NonFiniteFieldsYieldFiniteEstimates) {
  PeSample pe;
  pe.wall_sec = 10.0;
  pe.task_cpu_sec = 3.0;
  pe.core_idle_sec = std::numeric_limits<double>::quiet_NaN();
  const double estimate = estimate_background_load(pe);
  EXPECT_TRUE(std::isfinite(estimate));
  EXPECT_GE(estimate, 0.0);
  EXPECT_LE(estimate, pe.wall_sec);
}

TEST(EstimatorClampTest, SanityGateFlagsCorruptSamples) {
  PeSample ok;
  ok.wall_sec = 10.0;
  ok.task_cpu_sec = 4.0;
  ok.core_idle_sec = 5.0;
  EXPECT_TRUE(pe_sample_sane(ok));

  PeSample negative = ok;
  negative.core_idle_sec = -0.5;
  EXPECT_FALSE(pe_sample_sane(negative));

  PeSample nan = ok;
  nan.wall_sec = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(pe_sample_sane(nan));

  PeSample impossible = ok;
  impossible.core_idle_sec = 25.0;  // idle cannot exceed the window
  EXPECT_FALSE(pe_sample_sane(impossible));

  // Small jitter past the window is tolerated (jiffy rounding).
  PeSample jittered = ok;
  jittered.core_idle_sec = 10.0 + 1e-12;
  EXPECT_TRUE(pe_sample_sane(jittered));
}

// ----------------------------------------------- windowed outlier clamp

LbStats stats_with_background(double bg) {
  LbStats stats;
  stats.pes.resize(1);
  stats.pes[0].pe = 0;
  stats.pes[0].wall_sec = 10.0;
  stats.pes[0].task_cpu_sec = 2.0;
  stats.pes[0].core_idle_sec = std::max(0.0, 10.0 - 2.0 - bg);
  return stats;
}

TEST(WindowedEstimatorTest, OneWindowSpikeIsClamped) {
  WindowedBackgroundEstimator est{5, 4.0};
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(est.estimate(stats_with_background(0.5))[0], 0.5, 1e-9);
  ASSERT_EQ(est.clamped_count(), 0);
  // A one-window glitch: raw O_p jumps 16x. The clamp caps it at
  // 4 × median + the shared wall-slack tolerance.
  const double clamped = est.estimate(stats_with_background(8.0))[0];
  EXPECT_EQ(est.clamped_count(), 1);
  EXPECT_NEAR(clamped, 4.0 * 0.5 + wall_slack(10.0), 1e-12);
}

TEST(WindowedEstimatorTest, SustainedShiftPassesWithinHalfAWindow) {
  WindowedBackgroundEstimator est{5, 4.0};
  for (int i = 0; i < 5; ++i) est.estimate(stats_with_background(0.5));
  // Raw values (not clamped ones) enter the history, so a genuine
  // sustained rise shifts the median and unlatches the clamp once a
  // majority of the window (3 of 5 samples) sits at the new level.
  double value = 0.0;
  for (int i = 0; i < 4; ++i)
    value = est.estimate(stats_with_background(6.0))[0];
  EXPECT_NEAR(value, 6.0, 1e-9);
}

TEST(WindowedEstimatorTest, PeCountChangeResetsHistory) {
  WindowedBackgroundEstimator est{5, 4.0};
  for (int i = 0; i < 5; ++i) est.estimate(stats_with_background(0.5));
  LbStats two = stats_with_background(8.0);
  two.pes.push_back(two.pes[0]);
  two.pes[1].pe = 1;
  const auto out = est.estimate(two);
  ASSERT_EQ(out.size(), 2u);
  // Fresh history: nothing to clamp against.
  EXPECT_NEAR(out[0], 8.0, 1e-9);
}

// ------------------------------------------------- LB garbage fallback

LbStats balanced_two_pe_stats() {
  LbStats stats = two_pe_stats();
  // Rebalance idle so the snapshot is self-consistent and needs no moves.
  for (PeSample& pe : stats.pes)
    pe.core_idle_sec = pe.wall_sec - pe.task_cpu_sec;
  return stats;
}

TEST(LbFallbackTest, InsaneStatsKeepTheLastGoodAssignment) {
  LbOptions options;
  options.robustness.fallback_on_insane_stats = true;
  InterferenceAwareRefineLb lb{options};

  LbStats garbage = balanced_two_pe_stats();
  garbage.pes[1].core_idle_sec = std::numeric_limits<double>::quiet_NaN();
  const auto out = lb.assign(garbage);
  EXPECT_EQ(out, garbage.current_assignment());
  EXPECT_EQ(lb.garbage_fallbacks(), 1);
  EXPECT_EQ(lb.total_migrations(), 0);

  // A sane window goes back through the normal path.
  lb.assign(balanced_two_pe_stats());
  EXPECT_EQ(lb.garbage_fallbacks(), 1);
}

TEST(LbFallbackTest, DisabledFallbackStillProducesAValidAssignment) {
  InterferenceAwareRefineLb lb;  // vanilla: no sanity gate
  LbStats garbage = balanced_two_pe_stats();
  garbage.pes[0].core_idle_sec = -1e300;
  const auto out = lb.assign(garbage);
  ASSERT_EQ(out.size(), garbage.chares.size());
  for (const PeId pe : out) {
    EXPECT_GE(pe, 0);
    EXPECT_LT(pe, static_cast<PeId>(garbage.pes.size()));
  }
}

// ------------------------------------------- migration retry / abandon

/// Forces a migration of every chare at every LB step: assignment
/// rotates one PE to the right. The worst case for the retry machinery.
class RotateLb final : public LoadBalancer {
 public:
  std::string name() const override { return "rotate"; }
  std::vector<PeId> assign(const LbStats& stats) override {
    std::vector<PeId> out = stats.current_assignment();
    for (PeId& pe : out)
      pe = static_cast<PeId>((pe + 1) % static_cast<PeId>(stats.pes.size()));
    return out;
  }
};

struct MigrationFaultRun {
  RuntimeJob::Counters counters;
  std::vector<PeId> final_assignment;
  bool jacobi_bitwise_ok = false;
};

MigrationFaultRun run_with_migration_faults(const std::string& spec,
                                            int retries) {
  Simulator sim;
  MachineConfig mc;
  mc.nodes = 1;
  mc.cores_per_node = 4;
  Machine machine{sim, mc};
  VirtualMachine vm{machine, "app", {0, 1, 2, 3}};

  FaultInjector injector{FaultPlan::parse(spec)};
  JobConfig jc;
  jc.lb_period = 2;
  jc.faults = &injector;
  jc.migration_max_retries = retries;
  RuntimeJob job{sim, vm, jc, std::make_unique<RotateLb>()};

  Jacobi2dConfig config;
  config.layout.grid_x = 32;
  config.layout.grid_y = 32;
  config.layout.blocks_x = 4;
  config.layout.blocks_y = 2;
  config.layout.iterations = 8;
  config.layout.sec_per_point = 1e-7;
  populate_jacobi2d(job, config);

  job.start();
  while (!job.finished()) EXPECT_TRUE(sim.step());

  MigrationFaultRun out;
  out.counters = job.counters();
  for (std::size_t c = 0; c < job.num_chares(); ++c)
    out.final_assignment.push_back(job.pe_of(static_cast<ChareId>(c)));

  const auto serial = jacobi2d_reference(config);
  out.jacobi_bitwise_ok = true;
  for (std::size_t c = 0; c < job.num_chares(); ++c) {
    auto* chare =
        dynamic_cast<Jacobi2dChare*>(&job.chare(static_cast<ChareId>(c)));
    const auto block = chare->block_values();
    for (int y = 0; y < chare->ny() && out.jacobi_bitwise_ok; ++y)
      for (int x = 0; x < chare->nx(); ++x)
        if (block[static_cast<std::size_t>(y * chare->nx() + x)] !=
            serial[static_cast<std::size_t>(chare->y0() + y) * 32 +
                   static_cast<std::size_t>(chare->x0() + x)]) {
          out.jacobi_bitwise_ok = false;
          break;
        }
  }
  return out;
}

TEST(MigrationFaultTest, CertainFailureWithoutRetriesAbandonsEveryMove) {
  const MigrationFaultRun r =
      run_with_migration_faults("failmig(prob=1,partial=0)", /*retries=*/0);
  ASSERT_GT(r.counters.migrations, 0);
  // Every decided migration died at the source and was abandoned; the
  // chare stayed put, nothing was lost, and the computation is bit-exact.
  EXPECT_EQ(r.counters.migrations_failed, r.counters.migrations);
  EXPECT_EQ(r.counters.migration_retries, 0);
  EXPECT_TRUE(r.jacobi_bitwise_ok);
  // All migrations abandoned => the block-wise initial mapping survives.
  for (std::size_t c = 0; c < r.final_assignment.size(); ++c)
    EXPECT_EQ(r.final_assignment[c],
              static_cast<PeId>(c * 4 / r.final_assignment.size()));
}

TEST(MigrationFaultTest, PartialFailuresAreAlsoRolledBack) {
  const MigrationFaultRun r =
      run_with_migration_faults("failmig(prob=1,partial=1)", /*retries=*/0);
  ASSERT_GT(r.counters.migrations, 0);
  EXPECT_EQ(r.counters.migrations_failed, r.counters.migrations);
  EXPECT_TRUE(r.jacobi_bitwise_ok);
}

TEST(MigrationFaultTest, RetriesAreCountedAndExhausted) {
  const MigrationFaultRun r =
      run_with_migration_faults("failmig(prob=1,partial=0.5);seed(value=5)",
                                /*retries=*/2);
  ASSERT_GT(r.counters.migrations, 0);
  // prob = 1: every attempt fails, so each migration burns all retries.
  EXPECT_EQ(r.counters.migration_retries, 2 * r.counters.migrations);
  EXPECT_EQ(r.counters.migrations_failed, r.counters.migrations);
  EXPECT_TRUE(r.jacobi_bitwise_ok);
}

TEST(MigrationFaultTest, FlakyMigrationsEventuallySucceedWithRetries) {
  const MigrationFaultRun r = run_with_migration_faults(
      "failmig(prob=0.5);seed(value=11)", /*retries=*/8);
  ASSERT_GT(r.counters.migrations, 0);
  // With 8 retries at p = 0.5, abandoning is a ~0.2% tail event per
  // migration; the run sees a handful of migrations, so none abandon.
  EXPECT_EQ(r.counters.migrations_failed, 0);
  EXPECT_GT(r.counters.migration_retries, 0);
  EXPECT_TRUE(r.jacobi_bitwise_ok);
}

// --------------------------------------- 256-scenario property suite

std::uint64_t seed_base() {
  const char* env = std::getenv("CLOUDLB_FAULT_SEED_BASE");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

std::string random_fault_spec(Rng& rng, std::uint64_t seed) {
  std::ostringstream spec;
  spec << "seed(value=" << seed << ")";
  if (rng.next_double() < 0.4)
    spec << ";spike(core=" << rng.uniform_int(0, 3)
         << ",start=" << rng.uniform(0.0, 0.05)
         << ",duration=" << rng.uniform(0.0, 0.2)
         << ",duty=" << rng.uniform(0.0, 1.0) << ")";
  if (rng.next_double() < 0.3) {
    const double period = rng.uniform(0.02, 0.2);
    spec << ";square(core=" << rng.uniform_int(0, 3)
         << ",start=" << rng.uniform(0.0, 0.05) << ",period=" << period
         << ",on=" << rng.uniform(0.0, period)
         << ",duty=" << rng.uniform(0.0, 1.0) << ")";
  }
  if (rng.next_double() < 0.25)
    spec << ";pareto(cores=" << rng.uniform_int(0, 2)
         << ",alpha=" << rng.uniform(1.1, 3.0)
         << ",min_on=" << rng.uniform(0.001, 0.02)
         << ",mean_off=" << rng.uniform(0.05, 0.5)
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
    spec << ";jitter(sigma=" << rng.uniform(0.0, 0.005) << ")";
  if (rng.next_double() < 0.6)
    spec << ";failmig(prob=" << rng.uniform(0.0, 1.0)
         << ",partial=" << rng.uniform(0.0, 1.0) << ")";
  return spec.str();
}

/// Wraps a real strategy and checks load conservation (Eq. 1) on every
/// window: reassignment may move load between PEs but never create or
/// destroy it, and the resulting T_avg is exactly the pre-LB T_avg.
class ConservationCheckingLb final : public LoadBalancer {
 public:
  explicit ConservationCheckingLb(std::unique_ptr<LoadBalancer> inner)
      : inner_{std::move(inner)} {}

  std::string name() const override { return inner_->name() + "+conserve"; }

  std::vector<PeId> assign(const LbStats& stats) override {
    std::vector<PeId> out = inner_->assign(stats);
    ++windows_;
    const auto pes = static_cast<PeId>(stats.pes.size());
    if (out.size() != stats.chares.size()) {
      ++violations_;
      return out;
    }
    const std::vector<double> background = estimate_background_load(stats);
    double total_before = 0.0, total_after = 0.0;
    for (const ChareSample& ch : stats.chares) total_before += ch.cpu_sec;
    std::vector<double> load(stats.pes.size(), 0.0);
    for (std::size_t c = 0; c < out.size(); ++c) {
      if (out[c] < 0 || out[c] >= pes) {
        ++violations_;
        return out;
      }
      load[static_cast<std::size_t>(out[c])] += stats.chares[c].cpu_sec;
    }
    for (const double l : load) total_after += l;
    const double bg_total =
        std::accumulate(background.begin(), background.end(), 0.0);
    const double t_avg_before =
        (total_before + bg_total) / static_cast<double>(pes);
    const double t_avg_after =
        (total_after + bg_total) / static_cast<double>(pes);
    const double tol = 1e-9 * std::max(1.0, total_before);
    if (std::abs(total_after - total_before) > tol) ++violations_;
    if (std::abs(t_avg_after - t_avg_before) > tol) ++violations_;
    return out;
  }

  int windows() const { return windows_; }
  int violations() const { return violations_; }

 private:
  std::unique_ptr<LoadBalancer> inner_;
  int windows_ = 0;
  int violations_ = 0;
};

class FaultScenarioTest : public ::testing::TestWithParam<int> {};

TEST_P(FaultScenarioTest, InvariantsSurviveRandomFaultPlans) {
  const std::uint64_t seed =
      seed_base() * 1'000'003ull + static_cast<std::uint64_t>(GetParam());
  Rng rng{seed};
  const std::string spec = random_fault_spec(rng, seed);
  SCOPED_TRACE("seed=" + std::to_string(seed) + " spec=\"" + spec + "\"");

  FaultInjector injector{FaultPlan::parse(spec)};

  Simulator sim;
  MachineConfig mc;
  mc.nodes = 1;
  mc.cores_per_node = 4;
  Machine machine{sim, mc};
  const int cores = static_cast<int>(rng.uniform_int(2, 4));
  std::vector<CoreId> ids(static_cast<std::size_t>(cores));
  std::iota(ids.begin(), ids.end(), 0);
  VirtualMachine vm{machine, "app", ids};

  JobConfig jc;
  jc.lb_period = 2;
  jc.faults = &injector;
  jc.migration_max_retries = static_cast<int>(rng.uniform_int(0, 3));

  LbOptions options;
  options.robustness.fallback_on_insane_stats = rng.next_double() < 0.5;
  options.robustness.estimator_window =
      rng.next_double() < 0.5 ? 4 : 0;
  auto checker = std::make_unique<ConservationCheckingLb>(
      std::make_unique<InterferenceAwareRefineLb>(options));
  const ConservationCheckingLb* probe = checker.get();
  RuntimeJob job{sim, vm, jc, std::move(checker)};

  Jacobi2dConfig config;
  config.layout.grid_x = 32;
  config.layout.grid_y = 32;
  config.layout.blocks_x = 4;
  config.layout.blocks_y = 2;
  config.layout.iterations = 8;
  config.layout.sec_per_point = 1e-7;
  populate_jacobi2d(job, config);

  injector.install_interference(sim, machine);
  job.start();

  // Invariant 3: the simulator clock never regresses, no matter what the
  // plan perturbed. 50M events is far past any sane run — hitting it
  // means a fault path livelocked the job.
  SimTime prev = sim.now();
  std::uint64_t steps = 0;
  while (!job.finished()) {
    ASSERT_TRUE(sim.step()) << "simulation stalled before the job finished";
    ASSERT_GE(sim.now(), prev) << "simulator clock regressed";
    prev = sim.now();
    ASSERT_LT(++steps, 50'000'000ull) << "event-count ceiling hit";
  }

  // Invariant 2: Eq. 1 conservation held on every LB window.
  EXPECT_GT(probe->windows(), 0);
  EXPECT_EQ(probe->violations(), 0);

  // Invariant 1: no chare lost or duplicated — the computation is
  // bit-exact against the serial reference, failed migrations included.
  const auto serial = jacobi2d_reference(config);
  for (std::size_t c = 0; c < job.num_chares(); ++c) {
    const PeId pe = job.pe_of(static_cast<ChareId>(c));
    ASSERT_GE(pe, 0);
    ASSERT_LT(pe, static_cast<PeId>(cores));
    auto* chare =
        dynamic_cast<Jacobi2dChare*>(&job.chare(static_cast<ChareId>(c)));
    const auto block = chare->block_values();
    for (int y = 0; y < chare->ny(); ++y)
      for (int x = 0; x < chare->nx(); ++x)
        ASSERT_EQ(
            block[static_cast<std::size_t>(y * chare->nx() + x)],
            serial[static_cast<std::size_t>(chare->y0() + y) * 32 +
                   static_cast<std::size_t>(chare->x0() + x)])
            << "chare " << c << " diverged from the serial reference";
  }

  // Bookkeeping sanity: a migration abandons at most once.
  EXPECT_LE(job.counters().migrations_failed, job.counters().migrations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultScenarioTest, ::testing::Range(0, 256));

}  // namespace
}  // namespace cloudlb
