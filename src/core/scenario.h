#pragma once

#include <memory>
#include <optional>
#include <string>

#include "apps/app_factory.h"
#include "lb/framework.h"
#include "machine/machine.h"
#include "machine/power.h"
#include "metrics/timeline.h"
#include "vm/tenant.h"
#include "runtime/job.h"
#include "util/sim_time.h"

namespace cloudlb {

/// Full description of one cloud experiment: an application job on P
/// cores of a virtualized cluster, optionally disturbed by the paper's
/// fixed background job (a small Wave2D on two of those cores), balanced
/// by a named strategy.
struct ScenarioConfig {
  AppSpec app;
  int app_cores = 4;

  /// Cluster shape; `nodes` is ignored and derived from app_cores (quad
  /// cores per node by default, like the testbed).
  MachineConfig machine;

  /// Shard count for the runtime host (docs/sharded-engine.md); must be
  /// >= 1. The cluster's nodes are block-partitioned into min(N, nodes)
  /// shards, each with its own event engine and per-shard LB-database
  /// segment; compute phases run as conservative windows (width = the
  /// network's min_internode_delay) and collective phases (AtSync
  /// barriers, reductions, broadcasts) run serialized in canonical global
  /// order. Results are bit-identical for every shard count (pinned by
  /// tests/sharded_runtime_test.cc against a single-Simulator reference).
  /// Tenant fields and tracers need the host to end up with one shard.
  int shards = 1;

  /// Worker-team size for parallel shard windows. <= 1 runs windows
  /// serially on the driving thread (same trace either way — the merge
  /// order is canonical); inert unless the host has more than one shard.
  int shard_workers = 0;

  /// Strategy name accepted by make_balancer ("null" = the paper's noLB).
  std::string balancer = "ia-refine";
  LbOptions lb_options;
  int lb_period = 5;   ///< iterations between AtSync barriers
  JobConfig job;       ///< runtime template (network, migration costs)

  // Background (interfering) job: a 2-core Wave2D, identical across runs,
  // pinned to the first bg_cores cores of the application's allocation.
  bool with_background = true;
  int bg_cores = 2;
  double bg_weight = 1.0;  ///< OS share of the BG VM (>1 models BG favouring)
  int bg_iterations = 240;
  SimTime bg_start;  ///< when the interfering job begins (default: t = 0)

  // Public-cloud mode (the paper's §VI outlook): in addition to — or
  // instead of — the fixed 2-core background job, a field of bursty
  // single-vCPU tenant VMs on random cores. 0 disables it.
  int tenants = 0;
  TenantFieldConfig tenant_config;

  /// Fault-injection spec (see docs/fault-injection.md), e.g.
  /// "spike(core=2,start=0.5,duration=1);drop(prob=0.1);seed(value=42)".
  /// Empty — the default — injects nothing and leaves the run bit-identical
  /// to a faultless build. Penalty experiments keep their base/solo runs
  /// clean so faults only perturb the combined run.
  std::string faults;

  /// Enables deep invariant validation (util/validate.h) for the duration
  /// of this run: heap/arena audits, per-LB-step assignment audits, Eq. 1
  /// conservation, monotone trace checks. Validators only observe, so a
  /// validated run is bit-identical to an unvalidated one — just slower.
  bool validate = false;

  PowerModelConfig power;
};

/// Everything one simulated run yields.
struct RunResult {
  SimTime app_elapsed;
  std::optional<SimTime> bg_elapsed;  ///< set when a background job ran
  double energy_joules = 0.0;         ///< over the application's window
  double avg_power_watts = 0.0;       ///< ditto
  RuntimeJob::Counters app_counters;
  int lb_migrations = 0;  ///< convenience copy of app_counters.migrations
};

/// Runs one experiment to completion (both jobs) on a ShardedRuntimeHost
/// with config.shards shards. If `tracer` is given it observes both jobs,
/// enabling Figure-1/3-style timelines.
RunResult run_scenario(const ScenarioConfig& config,
                       TimelineTracer* tracer = nullptr);

/// Same, but with a caller-supplied application balancer instead of the
/// name in `config.balancer` — the hook for custom strategies (see
/// examples/custom_balancer.cpp).
RunResult run_scenario_with(const ScenarioConfig& config,
                            std::unique_ptr<LoadBalancer> balancer,
                            TimelineTracer* tracer = nullptr);

/// Same, but borrowing the balancer: the caller keeps ownership (it must
/// outlive the call) and can query strategy-specific diagnostics — e.g.
/// InterferenceAwareRefineLb::garbage_fallbacks() — after the run, which
/// the owning overload destroys with the job before returning.
RunResult run_scenario_with(const ScenarioConfig& config,
                            LoadBalancer& balancer,
                            TimelineTracer* tracer = nullptr);

/// Runs only the scenario's background job on an otherwise empty machine
/// (the BG baseline the paper's "BG timing penalty" divides by).
SimTime run_background_solo(const ScenarioConfig& config);

/// The paper's primary measurement (Figures 2 and 4): the same
/// application with and without interference, plus the BG solo baseline.
struct PenaltyResult {
  RunResult base;      ///< app alone (normalization run)
  RunResult combined;  ///< app + the configured interference
  SimTime bg_solo;     ///< background job alone (zero in tenants-only mode)

  double app_penalty_pct = 0.0;      ///< extra app time from interference, %
  double bg_penalty_pct = 0.0;       ///< extra BG time from the app, %
                                     ///< (0 in tenants-only mode)
  double energy_overhead_pct = 0.0;  ///< extra energy vs. the base run, %
};

/// The one penalty formula: the combined run's app time and energy over
/// `base`'s, and, when the BG job ran (`bg_solo` set), its combined time
/// over `bg_solo`. The caller picks the normalization runs: `penalty`
/// uses a solo run with the same balancer, the fig2/fig4 grids a noLB
/// one (EXPERIMENTS.md).
PenaltyResult penalty_result(RunResult base, RunResult combined,
                             std::optional<SimTime> bg_solo);

/// Runs the app alone (same balancer, no interference or faults), the
/// configured combined scenario and, with the BG job, the BG solo run,
/// and scores them with penalty_result().
PenaltyResult run_penalty_experiment(const ScenarioConfig& config);

/// Percentage increase of `value` over `base` ((value/base − 1)·100).
double percent_increase(double value, double base);

/// The Wave2D configuration used for the background job (exposed so tests
/// and ablations can reason about its size).
struct BackgroundJobSpec {
  int grid_x = 128;
  int grid_y = 128;
  int blocks_x = 4;
  int blocks_y = 2;
  double sec_per_point = 5e-6;
};

}  // namespace cloudlb
