#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/background_estimator.h"
#include "core/balancer_factory.h"
#include "core/gain_gated_lb.h"
#include "core/interference_aware_lb.h"
#include "core/replay.h"
#include "core/scenario.h"
#include "util/check.h"

namespace cloudlb {
namespace {

LbStats make_stats(int num_pes, const std::vector<double>& chare_cpu,
                   const std::vector<PeId>& assignment, double wall,
                   const std::vector<double>& background) {
  LbStats stats;
  stats.pes.resize(static_cast<std::size_t>(num_pes));
  std::vector<double> task(static_cast<std::size_t>(num_pes), 0.0);
  stats.chares.resize(chare_cpu.size());
  for (std::size_t c = 0; c < chare_cpu.size(); ++c) {
    auto& ch = stats.chares[c];
    ch.chare = static_cast<ChareId>(c);
    ch.pe = assignment[c];
    ch.cpu_sec = chare_cpu[c];
    ch.bytes = 65536;
    task[static_cast<std::size_t>(ch.pe)] += ch.cpu_sec;
  }
  for (int p = 0; p < num_pes; ++p) {
    const auto i = static_cast<std::size_t>(p);
    auto& pe = stats.pes[i];
    pe.pe = p;
    pe.core = p;
    pe.wall_sec = wall;
    pe.task_cpu_sec = task[i];
    pe.core_idle_sec = std::max(0.0, wall - task[i] - background[i]);
  }
  return stats;
}

std::vector<double> loads(const LbStats& stats,
                          const std::vector<PeId>& assignment,
                          const std::vector<double>& background) {
  std::vector<double> load = background;
  for (std::size_t c = 0; c < assignment.size(); ++c)
    load[static_cast<std::size_t>(assignment[c])] += stats.chares[c].cpu_sec;
  return load;
}

// ------------------------------------------------- BackgroundLoadEstimator

TEST(BackgroundEstimatorTest, QuietCoreEstimatesZero) {
  PeSample pe;
  pe.wall_sec = 10.0;
  pe.task_cpu_sec = 4.0;
  pe.core_idle_sec = 6.0;
  EXPECT_DOUBLE_EQ(estimate_background_load(pe), 0.0);
}

TEST(BackgroundEstimatorTest, RecoversInterferenceShare) {
  // Eq. 2: wall 10 s, app tasks 4 s, idle 1 s → 5 s of somebody else.
  PeSample pe;
  pe.wall_sec = 10.0;
  pe.task_cpu_sec = 4.0;
  pe.core_idle_sec = 1.0;
  EXPECT_DOUBLE_EQ(estimate_background_load(pe), 5.0);
}

TEST(BackgroundEstimatorTest, ClampsNegativeJitter) {
  PeSample pe;
  pe.wall_sec = 10.0;
  pe.task_cpu_sec = 6.0;
  pe.core_idle_sec = 4.5;  // measurement jitter: sums past the wall clock
  EXPECT_DOUBLE_EQ(estimate_background_load(pe), 0.0);
}

TEST(BackgroundEstimatorTest, SanitizesNonFiniteSampleFields) {
  // A corrupt /proc/stat-style read (NaN wall clock, Inf idle, ...) must
  // not leak NaN/Inf into O_p — that would poison T_avg and with it every
  // balance decision downstream. Non-finite fields are treated as 0.
  PeSample pe;
  pe.wall_sec = std::numeric_limits<double>::quiet_NaN();
  pe.task_cpu_sec = 4.0;
  pe.core_idle_sec = 1.0;
  EXPECT_DOUBLE_EQ(estimate_background_load(pe), 0.0);  // 0 - 4 - 1, clamped

  pe.wall_sec = 10.0;
  pe.core_idle_sec = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(estimate_background_load(pe), 6.0);  // 10 - 4 - 0

  pe.core_idle_sec = 1.0;
  pe.task_cpu_sec = -std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(estimate_background_load(pe), 9.0);  // 10 - 0 - 1

  // Vector form stays finite even when one PE's sample is corrupt.
  LbStats stats = make_stats(3, {1.0, 1.0, 1.0}, {0, 1, 2}, 10.0,
                             {0.0, 3.0, 9.0});
  stats.pes[1].wall_sec = std::numeric_limits<double>::quiet_NaN();
  const auto bg = estimate_background_load(stats);
  for (const double b : bg) EXPECT_TRUE(std::isfinite(b));
}

TEST(BackgroundEstimatorTest, VectorVersionPerPe) {
  const LbStats stats = make_stats(3, {1.0, 1.0, 1.0}, {0, 1, 2}, 10.0,
                                   {0.0, 3.0, 9.0});
  const auto bg = estimate_background_load(stats);
  ASSERT_EQ(bg.size(), 3u);
  EXPECT_NEAR(bg[0], 0.0, 1e-12);
  EXPECT_NEAR(bg[1], 3.0, 1e-12);
  EXPECT_NEAR(bg[2], 9.0, 1e-12);
}

// --------------------------------------------------- InterferenceAwareRefineLb

TEST(InterferenceAwareLbTest, DrainsInterferedPe) {
  // Even app load, but PE0's core is half-eaten by a co-located VM.
  InterferenceAwareRefineLb lb;
  const std::vector<double> bg = {5.0, 0.0, 0.0, 0.0};
  const LbStats stats = make_stats(
      4, std::vector<double>(8, 1.25), {0, 0, 1, 1, 2, 2, 3, 3}, 10.0, bg);
  const auto result = lb.assign(stats);
  const auto after = loads(stats, result, bg);
  // PE0's background alone (5 s) exceeds T_avg (3.75 s): every movable
  // chare must leave it.
  EXPECT_DOUBLE_EQ(after[0], 5.0);
  // Receivers stay within ε of the average.
  const double t_avg =
      std::accumulate(after.begin(), after.end(), 0.0) / 4.0;
  for (std::size_t p = 1; p < 4; ++p)
    EXPECT_LE(after[p], t_avg * 1.05 + 1e-9);
  EXPECT_EQ(lb.total_migrations(), 2);
}

TEST(InterferenceAwareLbTest, NoInterferenceBehavesLikeRefine) {
  InterferenceAwareRefineLb lb;
  const std::vector<double> bg = {0.0, 0.0};
  const LbStats stats =
      make_stats(2, {2.0, 2.0, 2.0, 2.0}, {0, 0, 0, 0}, 10.0, bg);
  const auto result = lb.assign(stats);
  const auto after = loads(stats, result, bg);
  EXPECT_DOUBLE_EQ(after[0], 4.0);
  EXPECT_DOUBLE_EQ(after[1], 4.0);
}

TEST(InterferenceAwareLbTest, BalancedInterferedSystemLeftAlone) {
  // Interference present but loads already proportioned: no migrations.
  const std::vector<double> bg = {4.0, 0.0};
  const LbStats stats = make_stats(2, {1.0, 1.0, 3.0, 3.0}, {0, 0, 1, 1},
                                   10.0, bg);
  InterferenceAwareRefineLb lb;
  EXPECT_EQ(lb.assign(stats), stats.current_assignment());
  EXPECT_EQ(lb.total_migrations(), 0);
}

TEST(InterferenceAwareLbTest, WorkReturnsWhenInterferenceEnds) {
  // First window: PE0 interfered → drains. Second window: interference
  // gone → work flows back (the Figure 3 behaviour).
  InterferenceAwareRefineLb lb;
  std::vector<double> bg = {6.0, 0.0};
  const std::vector<double> cpu(8, 1.0);
  LbStats stats = make_stats(2, cpu, {0, 0, 0, 0, 1, 1, 1, 1}, 10.0, bg);
  const auto drained = lb.assign(stats);
  const auto load_drained = loads(stats, drained, bg);
  EXPECT_LT(load_drained[0] - bg[0], 4.0);  // app work moved off PE0

  bg = {0.0, 0.0};
  stats = make_stats(2, cpu, drained, 10.0, bg);
  const auto restored = lb.assign(stats);
  const auto load_restored = loads(stats, restored, bg);
  EXPECT_NEAR(load_restored[0], load_restored[1], 1.0 + 1e-9);
}

TEST(InterferenceAwareLbTest, Name) {
  EXPECT_EQ(InterferenceAwareRefineLb{}.name(), "ia-refine");
}

// --------------------------------------------------------- MigrationGainGatedLb

TEST(GainGatedLbTest, MigratesWhenGainDominates) {
  GainGateOptions options;
  options.migration_sec_per_byte = 1e-9;  // cheap network
  MigrationGainGatedLb lb{options};
  const std::vector<double> bg = {8.0, 0.0};
  const LbStats stats =
      make_stats(2, {2.0, 2.0, 2.0, 2.0}, {0, 0, 1, 1}, 10.0, bg);
  const auto result = lb.assign(stats);
  EXPECT_NE(result, stats.current_assignment());
  EXPECT_EQ(lb.migrating_steps(), 1);
  EXPECT_EQ(lb.gated_steps(), 0);
}

TEST(GainGatedLbTest, GatesWhenMigrationTooExpensive) {
  GainGateOptions options;
  options.migration_sec_per_byte = 1e-2;  // absurdly slow network
  MigrationGainGatedLb lb{options};
  const std::vector<double> bg = {8.0, 0.0};
  const LbStats stats =
      make_stats(2, {2.0, 2.0, 2.0, 2.0}, {0, 0, 1, 1}, 10.0, bg);
  EXPECT_EQ(lb.assign(stats), stats.current_assignment());
  EXPECT_EQ(lb.gated_steps(), 1);
  EXPECT_EQ(lb.migrating_steps(), 0);
}

TEST(GainGatedLbTest, NoMoveNeededCountsNeither) {
  MigrationGainGatedLb lb;
  const std::vector<double> bg = {0.0, 0.0};
  const LbStats stats = make_stats(2, {1.0, 1.0}, {0, 1}, 10.0, bg);
  EXPECT_EQ(lb.assign(stats), stats.current_assignment());
  EXPECT_EQ(lb.gated_steps(), 0);
  EXPECT_EQ(lb.migrating_steps(), 0);
}

TEST(GainGatedLbTest, ThresholdScalesTheGate) {
  // Pick costs so gain ≈ cost: threshold 0.5 lets it through, 2.0 blocks.
  const std::vector<double> bg = {4.0, 0.0};
  const LbStats stats = make_stats(2, {2.0, 2.0}, {0, 0}, 10.0, bg);
  // Gain: max load 8 → 6 (move one 2 s chare; receiver 2). Bytes 65536.
  GainGateOptions options;
  options.horizon_windows = 1.0;
  options.migration_sec_per_byte = 2.0 / 65536.0;  // cost = 2 s ≈ gain
  options.gain_threshold = 0.5;
  MigrationGainGatedLb permissive{options};
  EXPECT_NE(permissive.assign(stats), stats.current_assignment());
  options.gain_threshold = 2.0;
  MigrationGainGatedLb strict{options};
  EXPECT_EQ(strict.assign(stats), stats.current_assignment());
}

TEST(GainGatedLbTest, HorizonAmortizesMigrationCost) {
  // Same instance, cost slightly above one window's gain: a one-window
  // horizon gates, a long horizon migrates.
  const std::vector<double> bg = {4.0, 0.0};
  const LbStats stats = make_stats(2, {2.0, 2.0}, {0, 0}, 10.0, bg);
  GainGateOptions options;
  options.migration_sec_per_byte = 3.0 / 65536.0;  // cost 3 s > 2 s gain
  options.horizon_windows = 1.0;
  MigrationGainGatedLb myopic{options};
  EXPECT_EQ(myopic.assign(stats), stats.current_assignment());
  options.horizon_windows = 10.0;
  MigrationGainGatedLb persistent{options};
  EXPECT_NE(persistent.assign(stats), stats.current_assignment());
}

// ------------------------------------------------- ia-refine-ewma preset

// The preset's estimator front end: ia-refine's, in EWMA mode (α = 0.5).
ProactiveBackgroundEstimator ewma_estimator() {
  LbRobustnessOptions options;
  options.estimator_mode = EstimatorMode::kEwma;
  return ProactiveBackgroundEstimator{options};
}

TEST(SmoothedLbTest, FirstWindowMatchesPlainIaRefine) {
  // The EWMA seeds from its first observation, so the preset's first
  // decision is ia-refine's.
  const auto smoothed = make_balancer("ia-refine-ewma");
  InterferenceAwareRefineLb plain;
  const std::vector<double> bg = {6.0, 0.0};
  const LbStats stats = make_stats(2, std::vector<double>(8, 1.0),
                                   {0, 0, 0, 0, 1, 1, 1, 1}, 10.0, bg);
  EXPECT_EQ(smoothed->assign(stats), plain.assign(stats));
}

TEST(SmoothedLbTest, EwmaConvergesToSteadyBackground) {
  // After a quiet window a steady 4 s background is approached
  // geometrically: 4·(1 − 0.5^k) after k windows.
  ProactiveBackgroundEstimator estimator = ewma_estimator();
  const std::vector<PeId> assign{0, 0, 1, 1};
  const std::vector<double> cpu{1.0, 1.0, 1.0, 1.0};
  static_cast<void>(
      estimator.estimate(make_stats(2, cpu, assign, 10.0, {0.0, 0.0})));
  std::vector<double> smoothed;
  for (int window = 1; window <= 8; ++window) {
    smoothed = estimator.estimate(make_stats(2, cpu, assign, 10.0, {4.0, 0.0}));
    EXPECT_NEAR(smoothed[0], 4.0 * (1.0 - std::pow(0.5, window)), 1e-9);
  }
  EXPECT_NEAR(smoothed[0], 4.0, 0.1);
  EXPECT_NEAR(smoothed[1], 0.0, 1e-9);
}

TEST(SmoothedLbTest, DampsOneWindowBlip) {
  // After quiet windows an 8 s blip reads as α·8 = 4 s: too little to
  // justify moving a 3 s chare, while plain ia-refine chases the raw 8 s.
  const std::vector<double> quiet = {0.0, 0.0};
  const std::vector<double> blip = {8.0, 0.0};
  const std::vector<PeId> assign{0, 0, 1, 1};
  const std::vector<double> cpu{3.0, 3.0, 3.0, 3.0};
  const auto lb = make_balancer("ia-refine-ewma");
  ProactiveBackgroundEstimator estimator = ewma_estimator();
  for (int w = 0; w < 3; ++w) {
    const LbStats stats = make_stats(2, cpu, assign, 20.0, quiet);
    ASSERT_EQ(lb->assign(stats), assign);
    static_cast<void>(estimator.estimate(stats));
  }
  const LbStats blip_stats = make_stats(2, cpu, assign, 20.0, blip);
  EXPECT_EQ(lb->assign(blip_stats), assign);
  EXPECT_NEAR(estimator.estimate(blip_stats)[0], 4.0, 1e-9);
  InterferenceAwareRefineLb plain;
  EXPECT_NE(plain.assign(blip_stats), assign);
}

// ------------------------------------------------------------- replay

TEST(ReplayTest, ScoresStrategiesAgainstRecordedWindows) {
  // One interfered window: PE0 carries 6 s of background on even app load.
  const std::vector<double> bg = {6.0, 0.0};
  std::vector<LbStats> windows{
      make_stats(2, {1.0, 1.0, 1.0, 1.0}, {0, 0, 1, 1}, 10.0, bg)};

  InterferenceAwareRefineLb aware;
  const auto aware_rows = replay_stats(windows, aware);
  ASSERT_EQ(aware_rows.size(), 1u);
  EXPECT_NEAR(aware_rows[0].max_load_before, 8.0, 1e-9);
  EXPECT_LT(aware_rows[0].max_load_after, 8.0);
  EXPECT_GT(aware_rows[0].migrations, 0);

  // The blind baseline does nothing on the same trace.
  auto blind = make_balancer("refine");
  const auto blind_rows = replay_stats(windows, *blind);
  EXPECT_EQ(blind_rows[0].migrations, 0);
  EXPECT_NEAR(blind_rows[0].max_load_after,
              blind_rows[0].max_load_before, 1e-9);
}

TEST(ReplayTest, EmptyTraceYieldsNoRows) {
  InterferenceAwareRefineLb lb;
  EXPECT_TRUE(replay_stats({}, lb).empty());
}

// ------------------------------------------------------------ factory

TEST(BalancerFactoryTest, CreatesEveryName) {
  for (const auto& name : balancer_names()) {
    const auto lb = make_balancer(name);
    ASSERT_NE(lb, nullptr);
    EXPECT_EQ(lb->name(), name);
  }
}

TEST(BalancerFactoryTest, UnknownNameThrows) {
  EXPECT_THROW(make_balancer("nope"), CheckFailure);
}

// ------------------------------------------------------------ scenario

TEST(ScenarioTest, PercentIncrease) {
  EXPECT_DOUBLE_EQ(percent_increase(2.0, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(percent_increase(1.0, 1.0), 0.0);
  EXPECT_THROW(percent_increase(1.0, 0.0), CheckFailure);
}

TEST(ScenarioTest, PenaltyResultScoresAgainstTheGivenRuns) {
  RunResult base;
  base.app_elapsed = SimTime::seconds(2);
  base.energy_joules = 100.0;
  RunResult combined;
  combined.app_elapsed = SimTime::seconds(3);
  combined.energy_joules = 125.0;

  // Tenants only: no BG job, so no BG penalty.
  const PenaltyResult tenants = penalty_result(base, combined, std::nullopt);
  EXPECT_DOUBLE_EQ(tenants.app_penalty_pct, 50.0);
  EXPECT_DOUBLE_EQ(tenants.energy_overhead_pct, 25.0);
  EXPECT_EQ(tenants.bg_penalty_pct, 0.0);
  EXPECT_EQ(tenants.bg_solo, SimTime::zero());
  // A BG solo time needs a combined run that had the BG job.
  EXPECT_THROW(static_cast<void>(
                   penalty_result(base, combined, SimTime::seconds(1))),
               CheckFailure);

  combined.bg_elapsed = SimTime::seconds(4);
  const PenaltyResult with_bg =
      penalty_result(base, combined, SimTime::seconds(1));
  EXPECT_DOUBLE_EQ(with_bg.app_penalty_pct, 50.0);
  EXPECT_DOUBLE_EQ(with_bg.bg_penalty_pct, 300.0);
  EXPECT_EQ(with_bg.bg_solo, SimTime::seconds(1));
  EXPECT_EQ(with_bg.base.app_elapsed, base.app_elapsed);
  EXPECT_EQ(with_bg.combined.bg_elapsed, combined.bg_elapsed);
}

ScenarioConfig small_config(const std::string& balancer) {
  ScenarioConfig config;
  config.app.name = "jacobi2d";
  config.app.iterations = 30;
  config.app_cores = 4;
  config.balancer = balancer;
  config.lb_period = 5;
  config.bg_iterations = 60;
  return config;
}

TEST(ScenarioTest, SoloRunHasNoBackground) {
  ScenarioConfig config = small_config("null");
  config.with_background = false;
  const RunResult r = run_scenario(config);
  EXPECT_FALSE(r.bg_elapsed.has_value());
  EXPECT_GT(r.app_elapsed.to_seconds(), 0.0);
  EXPECT_GT(r.energy_joules, 0.0);
  EXPECT_GT(r.avg_power_watts, 40.0);  // above one node's base power
}

TEST(ScenarioTest, InterferenceSlowsApp) {
  ScenarioConfig config = small_config("null");
  config.with_background = false;
  const RunResult solo = run_scenario(config);
  config.with_background = true;
  const RunResult with_bg = run_scenario(config);
  EXPECT_GT(with_bg.app_elapsed.to_seconds(),
            1.5 * solo.app_elapsed.to_seconds());
  EXPECT_TRUE(with_bg.bg_elapsed.has_value());
}

TEST(ScenarioTest, DeterministicAcrossRuns) {
  const ScenarioConfig config = small_config("ia-refine");
  const RunResult a = run_scenario(config);
  const RunResult b = run_scenario(config);
  EXPECT_EQ(a.app_elapsed, b.app_elapsed);
  EXPECT_EQ(*a.bg_elapsed, *b.bg_elapsed);
  EXPECT_DOUBLE_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.lb_migrations, b.lb_migrations);
}

// The borrowing overload must be bit-identical to the owning one, and —
// its reason to exist — leave the caller's strategy object alive so its
// diagnostics stay readable after the job tears down (the owning overload
// destroys the balancer with the job before returning).
TEST(ScenarioTest, BorrowedBalancerMatchesOwnedAndOutlivesRun) {
  const ScenarioConfig config = small_config("ia-refine");
  const RunResult owned = run_scenario(config);

  InterferenceAwareRefineLb lb{config.lb_options};
  const RunResult borrowed = run_scenario_with(config, lb);

  EXPECT_EQ(owned.app_elapsed, borrowed.app_elapsed);
  EXPECT_EQ(owned.lb_migrations, borrowed.lb_migrations);
  EXPECT_EQ(lb.total_migrations(), borrowed.lb_migrations);
  EXPECT_EQ(lb.garbage_fallbacks(), 0);
}

TEST(ScenarioTest, PenaltyExperimentInternallyConsistent) {
  const PenaltyResult r = run_penalty_experiment(small_config("null"));
  EXPECT_NEAR(r.app_penalty_pct,
              percent_increase(r.combined.app_elapsed.to_seconds(),
                               r.base.app_elapsed.to_seconds()),
              1e-9);
  EXPECT_NEAR(r.bg_penalty_pct,
              percent_increase(r.combined.bg_elapsed->to_seconds(),
                               r.bg_solo.to_seconds()),
              1e-9);
  EXPECT_GT(r.energy_overhead_pct, 0.0);
}

TEST(ScenarioTest, LbBeatsNoLbUnderInterference) {
  const PenaltyResult no_lb = run_penalty_experiment(small_config("null"));
  const PenaltyResult with_lb =
      run_penalty_experiment(small_config("ia-refine"));
  EXPECT_LT(with_lb.app_penalty_pct, no_lb.app_penalty_pct);
  EXPECT_LT(with_lb.energy_overhead_pct, no_lb.energy_overhead_pct);
  EXPECT_GT(with_lb.combined.lb_migrations, 0);
  EXPECT_EQ(no_lb.combined.lb_migrations, 0);
}

TEST(ScenarioTest, LbDrawsMorePowerButLessEnergy) {
  // Figure 4's core claim.
  const PenaltyResult no_lb = run_penalty_experiment(small_config("null"));
  const PenaltyResult with_lb =
      run_penalty_experiment(small_config("ia-refine"));
  EXPECT_GT(with_lb.combined.avg_power_watts,
            no_lb.combined.avg_power_watts);
  EXPECT_LT(with_lb.combined.energy_joules, no_lb.combined.energy_joules);
}

TEST(ScenarioTest, DelayedBackgroundStart) {
  ScenarioConfig config = small_config("null");
  config.bg_start = SimTime::seconds(2);
  const RunResult delayed = run_scenario(config);
  config.bg_start = SimTime::zero();
  const RunResult immediate = run_scenario(config);
  // Later interference → less of the app run is disturbed.
  EXPECT_LT(delayed.app_elapsed.to_seconds(),
            immediate.app_elapsed.to_seconds());
}

TEST(ScenarioTest, BgWeightAmplifiesPenalty) {
  // With a work-conserving scheduler, weights only matter while both jobs
  // are runnable — so the background must outlast the application.
  ScenarioConfig config = small_config("null");
  config.bg_iterations = 600;
  const RunResult fair = run_scenario(config);
  config.bg_weight = 4.0;
  const RunResult favoured = run_scenario(config);
  EXPECT_GT(favoured.app_elapsed.to_seconds(),
            1.4 * fair.app_elapsed.to_seconds());
}

TEST(ScenarioTest, TimelineTracerSeesBothJobs) {
  ScenarioConfig config = small_config("ia-refine");
  TimelineTracer tracer;
  run_scenario(config, &tracer);
  bool saw_app = false, saw_bg = false;
  for (const auto& ti : tracer.intervals()) {
    saw_app |= ti.job == "jacobi2d";
    saw_bg |= ti.job == "bg";
  }
  EXPECT_TRUE(saw_app);
  EXPECT_TRUE(saw_bg);
  EXPECT_FALSE(tracer.lb_marks().empty());
}

TEST(ScenarioTest, ConfigValidation) {
  ScenarioConfig config = small_config("null");
  config.bg_cores = 8;  // more than app_cores
  EXPECT_THROW(run_scenario(config), CheckFailure);
}

}  // namespace
}  // namespace cloudlb
