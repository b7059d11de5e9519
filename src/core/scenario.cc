#include "core/scenario.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "apps/wave2d.h"
#include "core/balancer_factory.h"
#include "faults/fault_injector.h"
#include "lb/null_lb.h"
#include "runtime/network.h"
#include "runtime/sharded_runtime.h"
#include "util/check.h"
#include "util/validate.h"
#include "vm/virtual_machine.h"

namespace cloudlb {

namespace {

// Hard ceiling on simulator events per run; a healthy evaluation-scale run
// needs well under a million, so hitting this means a livelock bug.
constexpr std::uint64_t kMaxEvents = 200'000'000;

MachineConfig machine_for(const ScenarioConfig& config, int cores_needed) {
  MachineConfig mc = config.machine;
  mc.nodes = (cores_needed + mc.cores_per_node - 1) / mc.cores_per_node;
  return mc;
}

Wave2dConfig background_app_config(const ScenarioConfig& config) {
  const BackgroundJobSpec spec;
  Wave2dConfig wc;
  wc.layout.grid_x = spec.grid_x;
  wc.layout.grid_y = spec.grid_y;
  wc.layout.blocks_x = spec.blocks_x;
  wc.layout.blocks_y = spec.blocks_y;
  wc.layout.sec_per_point = spec.sec_per_point;
  wc.layout.iterations = config.bg_iterations;
  return wc;
}

JobConfig background_job_config(const ScenarioConfig& config) {
  JobConfig jc = config.job;
  jc.name = "bg";
  jc.lb_period = 0;  // the interfering job never balances
  return jc;
}

/// Adapter behind the borrowing run_scenario_with overload: the job owns
/// this shim while the caller keeps the real strategy (and its counters).
class BorrowedBalancer final : public LoadBalancer {
 public:
  explicit BorrowedBalancer(LoadBalancer& inner) : inner_{inner} {}
  std::string name() const override { return inner_.name(); }
  std::vector<PeId> assign(const LbStats& stats) override {
    return inner_.assign(stats);
  }

 private:
  LoadBalancer& inner_;
};

ShardedRuntimeHost::Config host_config_for(const ScenarioConfig& config) {
  ShardedRuntimeHost::Config host_config;
  host_config.shards = config.shards;
  host_config.window = shard_window_width(config.job.network);
  host_config.parallel = config.shard_workers > 1;
  host_config.workers = config.shard_workers;
  return host_config;
}

}  // namespace

double percent_increase(double value, double base) {
  CLB_CHECK(base > 0.0);
  return (value / base - 1.0) * 100.0;
}

RunResult run_scenario(const ScenarioConfig& config, TimelineTracer* tracer) {
  return run_scenario_with(config,
                           make_balancer(config.balancer, config.lb_options),
                           tracer);
}

RunResult run_scenario_with(const ScenarioConfig& config,
                            std::unique_ptr<LoadBalancer> balancer,
                            TimelineTracer* tracer) {
  CLB_CHECK(config.app_cores >= 1);
  CLB_CHECK(!config.with_background || config.bg_cores <= config.app_cores);
  CLB_CHECK_MSG(config.shards >= 1,
                "a scenario needs at least one shard, got " << config.shards);
  CLB_CHECK(balancer != nullptr);

  // config.validate widens the process setting for this run only; it
  // never narrows it, so a CLOUDLB_VALIDATE build stays validated.
  ValidationScope validation{config.validate || validation_enabled()};

  ShardedRuntimeHost host{machine_for(config, config.app_cores),
                          host_config_for(config)};
  Machine& machine = host.machine();
  // Presize the arenas and heaps before the first event: steady state
  // holds only a few pending events per core (in-flight messages plus
  // timers), so a generous per-core multiplier removes every mid-run
  // regrow at negligible memory cost (tests/sim_alloc_test.cc pins this).
  const std::size_t presize =
      1024 + 256 * static_cast<std::size_t>(config.app_cores);
  host.sharded().reserve(presize, presize);

  // The fault injector (if any) outlives the jobs that hold a pointer to
  // it. An empty spec never constructs one, so faultless runs take no
  // fault branch anywhere.
  std::unique_ptr<FaultInjector> faults;
  if (!config.faults.empty())
    faults = std::make_unique<FaultInjector>(FaultPlan::parse(config.faults));

  std::vector<CoreId> app_cores(static_cast<std::size_t>(config.app_cores));
  std::iota(app_cores.begin(), app_cores.end(), 0);
  VirtualMachine app_vm{machine, "app", app_cores};

  JobConfig app_job_config = config.job;
  app_job_config.name = config.app.name;
  app_job_config.lb_period = config.lb_period;
  if (faults != nullptr) app_job_config.faults = faults.get();
  RuntimeJob app_job{host, app_vm, app_job_config, std::move(balancer)};
  populate_app(app_job, config.app);
  if (tracer != nullptr) app_job.set_observer(tracer);

  std::unique_ptr<VirtualMachine> bg_vm;
  std::unique_ptr<RuntimeJob> bg_job;
  if (config.with_background) {
    std::vector<CoreId> bg_cores(static_cast<std::size_t>(config.bg_cores));
    std::iota(bg_cores.begin(), bg_cores.end(), 0);
    bg_vm = std::make_unique<VirtualMachine>(machine, "bg", bg_cores,
                                             config.bg_weight);
    bg_job = std::make_unique<RuntimeJob>(host, *bg_vm,
                                          background_job_config(config),
                                          std::make_unique<NullLb>());
    populate_wave2d(*bg_job, background_app_config(config));
    if (tracer != nullptr) bg_job->set_observer(tracer);
  }

  // Tenants land on random cores, so their burst chains need the one
  // engine that runs every core.
  std::unique_ptr<TenantField> tenants;
  if (config.tenants > 0) {
    CLB_CHECK_MSG(host.shards() == 1,
                  "tenant fields need a one-shard host; got "
                      << host.shards() << " shards");
    TenantFieldConfig tc = config.tenant_config;
    tc.num_tenants = config.tenants;
    tenants = std::make_unique<TenantField>(host.engine_of_shard(0), machine,
                                            tc);
    tenants->start();
  }

  if (faults != nullptr) {
    faults->install_interference(
        machine, [&host](CoreId core) -> EngineCore& {
          return host.engine_of_core(core);
        });
  }

  // Energy integrates between explicit global instants. The stop instant
  // is the app job's exact finish time, delivered from the finishing
  // global phase.
  PowerMeter meter{machine, config.power};
  host.set_on_job_finished([&meter, &app_job](RuntimeJob& job) {
    if (&job == &app_job && meter.running()) meter.stop_at(job.finish_time());
  });
  meter.start_at(SimTime::zero());

  app_job.start();
  if (bg_job != nullptr) {
    if (config.bg_start.is_zero()) {
      bg_job->start();
    } else {
      RuntimeJob* bg = bg_job.get();
      host.schedule_action(config.bg_start, [bg] { bg->start(); });
    }
  }

  host.drive(kMaxEvents);
  CLB_CHECK(!meter.running());  // the finish callback must have stopped it
  if (tenants != nullptr) tenants->stop();

  RunResult result;
  result.app_elapsed = app_job.elapsed();
  if (bg_job != nullptr) result.bg_elapsed = bg_job->elapsed();
  result.energy_joules = meter.energy_joules();
  result.avg_power_watts = meter.average_power_watts();
  result.app_counters = app_job.counters();
  result.lb_migrations = app_job.counters().migrations;
  return result;
}

RunResult run_scenario_with(const ScenarioConfig& config,
                            LoadBalancer& balancer, TimelineTracer* tracer) {
  return run_scenario_with(config,
                           std::make_unique<BorrowedBalancer>(balancer),
                           tracer);
}

SimTime run_background_solo(const ScenarioConfig& config) {
  // Same cluster shape as the combined run, so BG network locality matches.
  ShardedRuntimeHost host{machine_for(config, config.app_cores),
                          host_config_for(config)};
  std::vector<CoreId> bg_cores(static_cast<std::size_t>(config.bg_cores));
  std::iota(bg_cores.begin(), bg_cores.end(), 0);
  VirtualMachine bg_vm{host.machine(), "bg", bg_cores, config.bg_weight};
  RuntimeJob bg_job{host, bg_vm, background_job_config(config),
                    std::make_unique<NullLb>()};
  populate_wave2d(bg_job, background_app_config(config));
  bg_job.start();
  host.drive(kMaxEvents);
  return bg_job.elapsed();
}

PenaltyResult penalty_result(RunResult base, RunResult combined,
                             std::optional<SimTime> bg_solo) {
  PenaltyResult out;
  out.base = std::move(base);
  out.combined = std::move(combined);
  out.app_penalty_pct = percent_increase(out.combined.app_elapsed.to_seconds(),
                                         out.base.app_elapsed.to_seconds());
  if (bg_solo.has_value()) {
    CLB_CHECK_MSG(out.combined.bg_elapsed.has_value(),
                  "a BG solo time needs a combined run with the BG job");
    out.bg_solo = *bg_solo;
    out.bg_penalty_pct = percent_increase(
        out.combined.bg_elapsed->to_seconds(), out.bg_solo.to_seconds());
  }
  out.energy_overhead_pct =
      percent_increase(out.combined.energy_joules, out.base.energy_joules);
  return out;
}

PenaltyResult run_penalty_experiment(const ScenarioConfig& config) {
  ScenarioConfig solo = config;
  solo.with_background = false;
  solo.tenants = 0;
  solo.faults.clear();  // the normalization run stays a clean reference
  RunResult base = run_scenario(solo);

  // "Combined" = the configured interference sources (the 2-core BG job
  // and/or a tenant field); "base" = the same app with neither.
  CLB_CHECK_MSG(config.with_background || config.tenants > 0,
                "penalty experiment needs some interference source");
  RunResult combined = run_scenario(config);

  std::optional<SimTime> bg_solo;
  if (combined.bg_elapsed.has_value()) bg_solo = run_background_solo(config);
  return penalty_result(std::move(base), std::move(combined), bg_solo);
}

}  // namespace cloudlb
