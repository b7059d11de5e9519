#include "traced_scenario.h"

#include <memory>
#include <numeric>
#include <utility>

#include "apps/app_factory.h"
#include "apps/wave2d.h"
#include "core/balancer_factory.h"
#include "core/interference_aware_lb.h"
#include "lb/null_lb.h"
#include "machine/machine.h"
#include "machine/power.h"
#include "runtime/network.h"
#include "runtime/sharded_runtime.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/validate.h"
#include "vm/tenant.h"
#include "vm/virtual_machine.h"

namespace perfbench {

using namespace cloudlb;

int SpanLog::begin(std::string name, int parent) {
  Span span;
  span.name = std::move(name);
  span.experiment = experiment_;
  span.parent = parent;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

namespace {

// The helpers and constants below repeat core/scenario.cc's; the
// benchmark's traced-equals-untraced check fails if they drift apart.
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
  jc.lb_period = 0;
  return jc;
}

std::size_t presize(const ScenarioConfig& config) {
  return 1024 + 256 * static_cast<std::size_t>(config.app_cores);
}

std::vector<CoreId> first_cores(int n) {
  std::vector<CoreId> cores(static_cast<std::size_t>(n));
  std::iota(cores.begin(), cores.end(), 0);
  return cores;
}

void add_counters(RuntimeJob::Counters& sum, const RuntimeJob::Counters& c) {
  sum.tasks_executed += c.tasks_executed;
  sum.messages_sent += c.messages_sent;
  sum.lb_steps += c.lb_steps;
  sum.migrations += c.migrations;
  sum.migrated_bytes += c.migrated_bytes;
  sum.migration_retries += c.migration_retries;
  sum.migrations_failed += c.migrations_failed;
}

/// Borrows the application's balancer, timing each assign() call as an
/// lb.assign span under the current drive span and recording its input
/// and output for the replay spans.
class ProbedBalancer final : public LoadBalancer {
 public:
  ProbedBalancer(LoadBalancer& inner, SpanLog& log, std::vector<LbCall>& calls)
      : inner_{inner}, log_{log}, calls_{calls} {}

  void set_parent(int span) { parent_ = span; }

  std::string name() const override { return inner_.name(); }

  std::vector<PeId> assign(const LbStats& stats) override {
    const int span = log_.begin("lb.assign", parent_);
    std::vector<PeId> assignment = inner_.assign(stats);
    log_.end(span);
    calls_.push_back({stats, assignment});
    return assignment;
  }

 private:
  LoadBalancer& inner_;
  SpanLog& log_;
  std::vector<LbCall>& calls_;
  int parent_ = -1;
};

template <typename Fn>
void populate_span(SpanLog& log, int setup, Fn&& populate) {
  const int span = log.begin("apps.populate", setup);
  populate();
  log.end(span);
}

/// Same loop as core/scenario.cc's drive(), including where the meter
/// stops: energy depends on it.
void drive(Simulator& sim, RuntimeJob& primary, RuntimeJob* secondary,
           PowerMeter* meter) {
  while (!primary.finished() ||
         (secondary != nullptr && !secondary->finished())) {
    CLB_CHECK_MSG(sim.step(), "simulation stalled before jobs finished");
    CLB_CHECK_MSG(sim.executed() < kMaxEvents, "event-count ceiling hit");
    if (meter != nullptr && meter->running() && primary.finished())
      meter->stop();
  }
  if (meter != nullptr && meter->running()) meter->stop();
}

void check_supported(const ScenarioConfig& config) {
  CLB_CHECK(config.app_cores >= 1);
  CLB_CHECK(!config.with_background || config.bg_cores <= config.app_cores);
  CLB_CHECK_MSG(config.faults.empty(),
                "the traced scenario does not model fault plans");
  CLB_CHECK_MSG(config.bg_start.is_zero(),
                "the traced scenario starts the BG job at t = 0 only");
}

void finish_result(ScenarioTrace& out, RuntimeJob& app_job, RuntimeJob* bg_job,
                   const PowerMeter& meter, const LoadBalancer& balancer) {
  out.result.app_elapsed = app_job.elapsed();
  if (bg_job != nullptr) out.result.bg_elapsed = bg_job->elapsed();
  out.result.energy_joules = meter.energy_joules();
  out.result.avg_power_watts = meter.average_power_watts();
  out.result.app_counters = app_job.counters();
  out.result.lb_migrations = app_job.counters().migrations;
  add_counters(out.jobs, app_job.counters());
  if (bg_job != nullptr) add_counters(out.jobs, bg_job->counters());
  if (const auto* ia =
          dynamic_cast<const InterferenceAwareRefineLb*>(&balancer))
    out.mispredicted_windows = ia->mispredicted_windows();
}

ScenarioTrace run_legacy(const ScenarioConfig& config, SpanLog& log,
                         int parent, Stage stage) {
  ScenarioTrace out;
  int teardown = -1;
  {
    const int setup = log.begin("setup", parent);
    ValidationScope validation{config.validate || validation_enabled()};
    const std::unique_ptr<LoadBalancer> balancer =
        make_balancer(config.balancer, config.lb_options);
    auto probe_owner =
        std::make_unique<ProbedBalancer>(*balancer, log, out.lb_calls);
    ProbedBalancer& probe = *probe_owner;

    Simulator sim;
    sim.reserve(presize(config), presize(config));
    Machine machine{sim, machine_for(config, config.app_cores)};
    VirtualMachine app_vm{machine, "app", first_cores(config.app_cores)};

    JobConfig app_job_config = config.job;
    app_job_config.name = config.app.name;
    app_job_config.lb_period = config.lb_period;
    RuntimeJob app_job{sim, app_vm, app_job_config, std::move(probe_owner)};
    populate_span(log, setup, [&] { populate_app(app_job, config.app); });

    std::unique_ptr<VirtualMachine> bg_vm;
    std::unique_ptr<RuntimeJob> bg_job;
    if (config.with_background) {
      bg_vm = std::make_unique<VirtualMachine>(
          machine, "bg", first_cores(config.bg_cores), config.bg_weight);
      bg_job = std::make_unique<RuntimeJob>(sim, *bg_vm,
                                            background_job_config(config),
                                            std::make_unique<NullLb>());
      populate_span(log, setup, [&] {
        populate_wave2d(*bg_job, background_app_config(config));
      });
    }

    std::unique_ptr<TenantField> tenants;
    if (config.tenants > 0) {
      TenantFieldConfig tc = config.tenant_config;
      tc.num_tenants = config.tenants;
      tenants = std::make_unique<TenantField>(sim, machine, tc);
      tenants->start();
    }

    PowerMeter meter{sim, machine, config.power};
    meter.start();
    app_job.start();
    if (bg_job != nullptr) bg_job->start();
    log.end(setup);

    if (stage == Stage::kRun) {
      const int drive_span = log.begin("drive", parent);
      probe.set_parent(drive_span);
      drive(sim, app_job, bg_job.get(), &meter);
      if (tenants != nullptr) tenants->stop();
      log.end(drive_span);
      finish_result(out, app_job, bg_job.get(), meter, *balancer);
      out.events = sim.executed();
    }
    teardown = log.begin("teardown", parent);
  }
  log.end(teardown);
  return out;
}

ScenarioTrace run_sharded(const ScenarioConfig& config, SpanLog& log,
                          int parent, Stage stage) {
  CLB_CHECK_MSG(config.tenants == 0,
                "tenant fields are not supported with --shards > 1");
  ScenarioTrace out;
  out.sharded = true;
  int teardown = -1;
  {
    const int setup = log.begin("setup", parent);
    ValidationScope validation{config.validate || validation_enabled()};
    const std::unique_ptr<LoadBalancer> balancer =
        make_balancer(config.balancer, config.lb_options);
    auto probe_owner =
        std::make_unique<ProbedBalancer>(*balancer, log, out.lb_calls);
    ProbedBalancer& probe = *probe_owner;

    ShardedRuntimeHost::Config host_config;
    host_config.shards = config.shards;
    host_config.window = shard_window_width(config.job.network);
    host_config.parallel = config.shard_workers > 1;
    host_config.workers = config.shard_workers;
    ShardedRuntimeHost host{machine_for(config, config.app_cores),
                            host_config};
    Machine& machine = host.machine();
    host.sharded().reserve(presize(config), presize(config));

    VirtualMachine app_vm{machine, "app", first_cores(config.app_cores)};
    JobConfig app_job_config = config.job;
    app_job_config.name = config.app.name;
    app_job_config.lb_period = config.lb_period;
    RuntimeJob app_job{host, app_vm, app_job_config, std::move(probe_owner)};
    populate_span(log, setup, [&] { populate_app(app_job, config.app); });

    std::unique_ptr<VirtualMachine> bg_vm;
    std::unique_ptr<RuntimeJob> bg_job;
    if (config.with_background) {
      bg_vm = std::make_unique<VirtualMachine>(
          machine, "bg", first_cores(config.bg_cores), config.bg_weight);
      bg_job = std::make_unique<RuntimeJob>(host, *bg_vm,
                                            background_job_config(config),
                                            std::make_unique<NullLb>());
      populate_span(log, setup, [&] {
        populate_wave2d(*bg_job, background_app_config(config));
      });
    }

    PowerMeter meter{machine, config.power};
    host.set_on_job_finished([&meter, &app_job](RuntimeJob& job) {
      if (&job == &app_job && meter.running()) meter.stop_at(job.finish_time());
    });
    meter.start_at(SimTime::zero());
    app_job.start();
    if (bg_job != nullptr) bg_job->start();
    log.end(setup);

    if (stage == Stage::kRun) {
      const int drive_span = log.begin("drive", parent);
      probe.set_parent(drive_span);
      host.drive(kMaxEvents);
      log.end(drive_span);
      CLB_CHECK(!meter.running());
      finish_result(out, app_job, bg_job.get(), meter, *balancer);
      out.events = host.sharded().executed();
      out.windows = host.windows_run();
      out.global_steps = host.global_steps();
      out.rewinds = host.rewinds();
    }
    teardown = log.begin("teardown", parent);
  }
  log.end(teardown);
  return out;
}

ScenarioTrace run_background_solo(const ScenarioConfig& config, SpanLog& log,
                                  int parent, Stage stage) {
  ScenarioTrace out;
  int teardown = -1;
  {
    const int setup = log.begin("setup", parent);
    Simulator sim;
    Machine machine{sim, machine_for(config, config.app_cores)};
    VirtualMachine bg_vm{machine, "bg", first_cores(config.bg_cores),
                         config.bg_weight};
    RuntimeJob bg_job{sim, bg_vm, background_job_config(config),
                      std::make_unique<NullLb>()};
    populate_span(log, setup, [&] {
      populate_wave2d(bg_job, background_app_config(config));
    });
    bg_job.start();
    log.end(setup);

    if (stage == Stage::kRun) {
      const int drive_span = log.begin("drive", parent);
      drive(sim, bg_job, nullptr, nullptr);
      log.end(drive_span);
      out.result.bg_elapsed = bg_job.elapsed();
      add_counters(out.jobs, bg_job.counters());
      out.events = sim.executed();
    }
    teardown = log.begin("teardown", parent);
  }
  log.end(teardown);
  return out;
}

ScenarioTrace traced_scenario(const ScenarioConfig& config, SpanLog& log,
                              int parent, const char* name, Stage stage) {
  check_supported(config);
  const int span = log.begin(name, parent);
  const bool sharded =
      config.shards > 1 && machine_for(config, config.app_cores).nodes > 1;
  ScenarioTrace out = sharded ? run_sharded(config, log, span, stage)
                              : run_legacy(config, log, span, stage);
  log.end(span);
  return out;
}

}  // namespace

ExperimentTrace traced_penalty_experiment(const ScenarioConfig& config,
                                          SpanLog& log, Stage stage) {
  ExperimentTrace out;
  const int root = log.begin("experiment", -1);

  ScenarioConfig solo = config;
  solo.with_background = false;
  solo.tenants = 0;
  solo.faults.clear();
  out.scenarios.push_back(
      traced_scenario(solo, log, root, "scenario.base", stage));

  CLB_CHECK_MSG(config.with_background || config.tenants > 0,
                "penalty experiment needs some interference source");
  out.scenarios.push_back(
      traced_scenario(config, log, root, "scenario.interfered", stage));

  if (config.with_background) {
    check_supported(config);
    const int span = log.begin("scenario.bg-solo", root);
    out.scenarios.push_back(run_background_solo(config, log, span, stage));
    log.end(span);
  }
  log.end(root);
  if (stage == Stage::kSetup) return out;

  // The arithmetic of run_penalty_experiment, on the traced results.
  PenaltyResult& p = out.penalty;
  p.base = out.scenarios[0].result;
  p.combined = out.scenarios[1].result;
  p.app_penalty_pct = percent_increase(p.combined.app_elapsed.to_seconds(),
                                       p.base.app_elapsed.to_seconds());
  if (p.combined.bg_elapsed.has_value()) {
    p.bg_solo = out.scenarios[2].result.bg_elapsed.value();
    p.bg_penalty_pct = percent_increase(p.combined.bg_elapsed->to_seconds(),
                                        p.bg_solo.to_seconds());
  }
  p.energy_overhead_pct =
      percent_increase(p.combined.energy_joules, p.base.energy_joules);
  return out;
}

}  // namespace perfbench
