#include "support/single_engine_scenario.h"

#include <memory>
#include <numeric>
#include <vector>

#include "apps/wave2d.h"
#include "core/balancer_factory.h"
#include "faults/fault_injector.h"
#include "lb/null_lb.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/validate.h"
#include "vm/virtual_machine.h"

namespace cloudlb {

namespace {

constexpr std::uint64_t kMaxEvents = 200'000'000;

// The job and machine shapes below restate core/scenario.cc on purpose:
// the reference must not share the code it checks.

MachineConfig machine_for(const ScenarioConfig& config) {
  MachineConfig mc = config.machine;
  mc.nodes = (config.app_cores + mc.cores_per_node - 1) / mc.cores_per_node;
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
  jc.lb_period = 0;
  return jc;
}

void drive(Simulator& sim, RuntimeJob& primary, RuntimeJob* secondary,
           PowerMeter& meter) {
  while (!primary.finished() ||
         (secondary != nullptr && !secondary->finished())) {
    CLB_CHECK_MSG(sim.step(), "simulation stalled before jobs finished");
    CLB_CHECK_MSG(sim.executed() < kMaxEvents, "event-count ceiling hit");
    if (meter.running() && primary.finished()) meter.stop();
  }
  meter.stop();
}

}  // namespace

RunResult run_single_engine_scenario(const ScenarioConfig& config,
                                     TimelineTracer* tracer) {
  CLB_CHECK(config.app_cores >= 1);
  CLB_CHECK(!config.with_background || config.bg_cores <= config.app_cores);
  ValidationScope validation{config.validate || validation_enabled()};

  Simulator sim;
  Machine machine{sim, machine_for(config)};

  std::vector<CoreId> app_cores(static_cast<std::size_t>(config.app_cores));
  std::iota(app_cores.begin(), app_cores.end(), 0);
  VirtualMachine app_vm{machine, "app", app_cores};

  std::unique_ptr<FaultInjector> faults;
  if (!config.faults.empty())
    faults = std::make_unique<FaultInjector>(FaultPlan::parse(config.faults));

  JobConfig app_job_config = config.job;
  app_job_config.name = config.app.name;
  app_job_config.lb_period = config.lb_period;
  if (faults != nullptr) app_job_config.faults = faults.get();
  RuntimeJob app_job{sim, app_vm, app_job_config,
                     make_balancer(config.balancer, config.lb_options)};
  populate_app(app_job, config.app);
  if (tracer != nullptr) app_job.set_observer(tracer);

  std::unique_ptr<VirtualMachine> bg_vm;
  std::unique_ptr<RuntimeJob> bg_job;
  if (config.with_background) {
    std::vector<CoreId> bg_cores(static_cast<std::size_t>(config.bg_cores));
    std::iota(bg_cores.begin(), bg_cores.end(), 0);
    bg_vm = std::make_unique<VirtualMachine>(machine, "bg", bg_cores,
                                             config.bg_weight);
    bg_job = std::make_unique<RuntimeJob>(sim, *bg_vm,
                                          background_job_config(config),
                                          std::make_unique<NullLb>());
    populate_wave2d(*bg_job, background_app_config(config));
    if (tracer != nullptr) bg_job->set_observer(tracer);
  }

  std::unique_ptr<TenantField> tenants;
  if (config.tenants > 0) {
    TenantFieldConfig tc = config.tenant_config;
    tc.num_tenants = config.tenants;
    tenants = std::make_unique<TenantField>(sim, machine, tc);
    tenants->start();
  }

  if (faults != nullptr) faults->install_interference(sim, machine);

  PowerMeter meter{sim, machine, config.power};
  meter.start();
  app_job.start();
  if (bg_job != nullptr) {
    if (config.bg_start.is_zero()) {
      bg_job->start();
    } else {
      sim.schedule_at(config.bg_start, [&bg_job] { bg_job->start(); });
    }
  }

  drive(sim, app_job, bg_job.get(), meter);
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

}  // namespace cloudlb
