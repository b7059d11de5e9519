#include "cli/cli.h"

#include <algorithm>
#include <fstream>
#include <ostream>

#include "apps/app_factory.h"
#include "core/balancer_factory.h"
#include "core/forecasting_estimator.h"
#include "core/replay.h"
#include "core/scenario.h"
#include "faults/fault_spec.h"
#include "lb/registry.h"
#include "lb/stats_io.h"
#include "metrics/profile.h"
#include "util/check.h"
#include "util/options.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace cloudlb {

namespace {

constexpr const char* kUsage = R"usage(cloudlb — interference-aware load balancing playground

usage: cloudlb <command> [options]

commands:
  penalty    run one interference experiment and report penalties
             --app=jacobi2d|wave2d|mol3d   (default jacobi2d)
             --balancer=<name>             (default ia-refine; see `balancers`)
             --cores=N                     (default 8)
             --iterations=N                (default 60)
             --lb-period=N                 (default 5)
             --epsilon=F                   (fraction of T_avg, default 0.05)
             --bg-iterations=N             (default 150)
             --bg-weight=F                 (default 1.0)
             --tenants=N                   (bursty tenant VMs on random
                                            cores; replaces the 2-core BG
                                            job unless --with-bg)
             --faults=SPEC                 (fault-injection spec, e.g.
                                            "spike(core=2,start=0.5,duration=1);
                                            drop(prob=0.1);seed(value=42)";
                                            see docs/fault-injection.md.
                                            Applies to the interfered run
                                            only; baselines stay clean)
             --migration-retries=N         (retry failed migrations up to N
                                            times with doubling backoff;
                                            default 0)
             --shards=N                    (partition the cluster's nodes
                                            into N shards, each with its
                                            own event engine and LB-
                                            database segment; compute
                                            phases run as conservative
                                            windows, collective phases in
                                            canonical global order;
                                            output is identical for
                                            every N; default 1; N > 1
                                            not with --tenants;
                                            see docs/sharded-engine.md)
             --jobs=N                      (run shard windows on N worker
                                            threads; needs --shards > 1;
                                            0 = all hardware threads;
                                            default 1 = serial windows;
                                            output identical for every N)
             --lb-fallback                 (keep the last-good assignment
                                            when a stats window is garbage)
             --estimator-window=N          (median-of-N outlier clamp on the
                                            background estimate; default 0
                                            = the paper's raw estimate;
                                            N must be 0 or >= 3)
             --estimator-clamp-factor=F    (clamp ceiling multiplier over
                                            the window median; default 4,
                                            must be >= 1)
             --estimator=MODE              (persist|ewma|trend|regress:
                                            forecast the background load
                                            one window ahead and balance
                                            proactively; default persist
                                            = the paper's last-window
                                            persistence; see
                                            docs/estimators.md)
             --forecast-horizon=F          (windows ahead to extrapolate;
                                            default 1, must be > 0)
             --forecast-margin=F           (confidence-band multiplier
                                            added to the prediction;
                                            default 0, must be >= 0)
             --csv                         (emit CSV instead of a table)
             (--lb-fallback, --estimator* and --forecast-* are rejected
             with null|greedy|refine|random; --lb-fallback also with
             gain-gated; ia-refine-ewma = ia-refine --estimator=ewma)
  sweep      the Figure-2/4 grid
             --app=..., --cores=4,8,16,32, --balancers=null,ia-refine
             --jobs=N  (run grid cells on N threads; 0 = all hardware
                        threads; output is identical for every N)
             (other penalty options apply to every balancer that uses
             them)
  timeline   run one scenario and draw per-core ASCII timelines
             --app=..., --balancer=..., --cores=N (<= 8 renders best),
             --width=N (default 100)
  record     run one interfered scenario, recording every LB window
             --out=FILE (required; other penalty options apply)
  replay     score a strategy offline against a recorded trace
             --trace=FILE (required), --balancer=<name>, --epsilon=F
  apps       list bundled applications
  balancers  list balancer strategies
  help       this text
)usage";

// Rejects the estimator flags a single chosen balancer would silently
// ignore: the baselines estimate no background load, and gain-gated has
// no last-good fallback. sweep skips this, since one grid may mix
// interference-aware and blind balancers.
void reject_ignored_lb_flags(const Options& options,
                             const std::string& balancer) {
  const std::vector<std::string> blind = baseline_balancer_names();
  const bool estimates =
      std::find(blind.begin(), blind.end(), balancer) == blind.end();
  for (const char* flag :
       {"estimator", "estimator-window", "estimator-clamp-factor",
        "forecast-horizon", "forecast-margin", "lb-fallback"}) {
    CLB_CHECK_MSG(estimates || !options.has(flag),
                  "--" << flag << " has no effect with --balancer="
                       << balancer
                       << ", which estimates no background load");
  }
  CLB_CHECK_MSG(balancer != "gain-gated" || !options.has("lb-fallback"),
                "--lb-fallback has no effect with --balancer=gain-gated, "
                "which has no last-good fallback");
}

ScenarioConfig config_from(Options& options,
                           bool scalar_cores_and_balancer = true) {
  ScenarioConfig config;
  config.app.name = options.get_string("app", "jacobi2d");
  config.app.iterations =
      static_cast<int>(options.get_int("iterations", 60));
  if (scalar_cores_and_balancer) {
    config.app_cores = static_cast<int>(options.get_int("cores", 8));
    config.balancer = options.get_string("balancer", "ia-refine");
  }
  config.lb_period = static_cast<int>(options.get_int("lb-period", 5));
  config.lb_options.epsilon_fraction = options.get_double("epsilon", 0.05);
  config.bg_iterations =
      static_cast<int>(options.get_int("bg-iterations", 150));
  config.bg_weight = options.get_double("bg-weight", 1.0);
  config.tenants = static_cast<int>(options.get_int("tenants", 0));
  if (config.tenants > 0)
    config.with_background = options.get_bool("with-bg", false);
  config.faults = options.get_string("faults", "");
  // Parse eagerly so a typo fails before any simulation runs; only the
  // validation side effect (CheckFailure on malformed specs) is wanted
  // here — the scenario parses its own copy when it builds the injector.
  if (!config.faults.empty()) static_cast<void>(FaultPlan::parse(config.faults));
  config.job.migration_max_retries =
      static_cast<int>(options.get_int("migration-retries", 0));
  config.shards = static_cast<int>(options.get_int("shards", 1));
  CLB_CHECK_MSG(config.shards >= 1,
                "--shards must be at least 1; got " << config.shards);
  // The partitioned runtime has no tenant field (its burst chains live on
  // one engine). Rejected whatever the node count, so the answer does not
  // depend on --cores.
  CLB_CHECK_MSG(config.shards == 1 || config.tenants == 0,
                "--shards > 1 cannot be combined with --tenants > 0; got "
                "--shards=" << config.shards << " --tenants="
                            << config.tenants);
  config.lb_options.robustness.fallback_on_insane_stats =
      options.get_bool("lb-fallback", false);
  // Validate the estimator knobs here, at parse time, with errors that
  // name the flag — mirroring the eager FaultPlan::parse above. Without
  // this, a bad value only surfaces as a CLB_CHECK abort deep inside the
  // estimator constructor, mid-run.
  LbRobustnessOptions& robustness = config.lb_options.robustness;
  robustness.estimator_window =
      static_cast<int>(options.get_int("estimator-window", 0));
  CLB_CHECK_MSG(
      robustness.estimator_window == 0 || robustness.estimator_window >= 3,
      "--estimator-window must be 0 (clamp off) or at least 3; got "
          << robustness.estimator_window);
  robustness.estimator_clamp_factor =
      options.get_double("estimator-clamp-factor", 4.0);
  CLB_CHECK_MSG(robustness.estimator_clamp_factor >= 1.0,
                "--estimator-clamp-factor must be at least 1.0 (a ceiling "
                "below the median would clamp everything); got "
                    << robustness.estimator_clamp_factor);
  // estimator_mode_from_name rejects unknown modes with the valid list.
  robustness.estimator_mode =
      estimator_mode_from_name(options.get_string("estimator", "persist"));
  robustness.forecast_horizon = options.get_double("forecast-horizon", 1.0);
  CLB_CHECK_MSG(robustness.forecast_horizon > 0.0,
                "--forecast-horizon must be positive; got "
                    << robustness.forecast_horizon);
  robustness.forecast_margin = options.get_double("forecast-margin", 0.0);
  CLB_CHECK_MSG(robustness.forecast_margin >= 0.0,
                "--forecast-margin must be non-negative; got "
                    << robustness.forecast_margin);
  if (scalar_cores_and_balancer) {
    reject_ignored_lb_flags(options, config.balancer);
    // Built once and dropped, like the FaultPlan above: an unknown name
    // or a preset conflict fails before any simulation runs.
    static_cast<void>(make_balancer(config.balancer, config.lb_options));
  }
  return config;
}

void emit_table(const Table& table, bool csv, std::ostream& out) {
  if (csv) {
    table.print_csv(out);
  } else {
    table.print(out);
  }
}

int cmd_penalty(Options& options, std::ostream& out) {
  ScenarioConfig config = config_from(options);
  // --jobs here sizes the shard worker team (sweep reuses the flag for
  // grid cells); windows merge canonically, so output is N-independent.
  // One shard has no team to size.
  CLB_CHECK_MSG(config.shards > 1 || !options.has("jobs"),
                "--jobs has no effect without --shards > 1; got --shards="
                    << config.shards);
  int jobs = static_cast<int>(options.get_int("jobs", 1));
  if (jobs <= 0) jobs = hardware_jobs();
  config.shard_workers = jobs;
  const bool csv = options.get_bool("csv", false);
  options.check_unused();
  const PenaltyResult r = run_penalty_experiment(config);

  Table table({"metric", "value"});
  table.add_row({"app", config.app.name});
  table.add_row({"balancer", config.balancer});
  table.add_row({"cores", std::to_string(config.app_cores)});
  table.add_row(
      {"app solo (s)", Table::num(r.base.app_elapsed.to_seconds(), 3)});
  table.add_row({"app with interference (s)",
                 Table::num(r.combined.app_elapsed.to_seconds(), 3)});
  table.add_row({"app penalty (%)", Table::num(r.app_penalty_pct, 1)});
  table.add_row({"bg penalty (%)", Table::num(r.bg_penalty_pct, 1)});
  table.add_row(
      {"energy overhead (%)", Table::num(r.energy_overhead_pct, 1)});
  table.add_row({"avg power (W)",
                 Table::num(r.combined.avg_power_watts, 1)});
  table.add_row({"migrations", std::to_string(r.combined.lb_migrations)});
  emit_table(table, csv, out);
  return 0;
}

int cmd_sweep(Options& options, std::ostream& out) {
  ScenarioConfig base = config_from(options, /*scalar_cores_and_balancer=*/false);
  const std::vector<int> cores =
      options.get_int_list("cores", {4, 8, 16, 32});
  std::vector<std::string> balancers;
  {
    const std::string list =
        options.get_string("balancers", "null,ia-refine");
    std::size_t pos = 0;
    while (pos <= list.size()) {
      const auto comma = list.find(',', pos);
      balancers.push_back(list.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos));
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }
  const bool csv = options.get_bool("csv", false);
  int jobs = static_cast<int>(options.get_int("jobs", 1));
  if (jobs <= 0) jobs = hardware_jobs();
  options.check_unused();
  for (const std::string& balancer : balancers)
    static_cast<void>(make_balancer(balancer, base.lb_options));

  // Each grid cell runs an independent pair of scenarios whose RNGs are
  // seeded from the cell's config, so the table is byte-identical for
  // every --jobs value; rows are emitted in cores-major order regardless
  // of which thread finished first.
  const std::size_t n_cells = cores.size() * balancers.size();
  const std::vector<PenaltyResult> results = parallel_map<PenaltyResult>(
      n_cells, jobs, [&](std::size_t i) {
        ScenarioConfig config = base;
        config.app_cores = cores[i / balancers.size()];
        config.balancer = balancers[i % balancers.size()];
        return run_penalty_experiment(config);
      });

  Table table({"cores", "balancer", "app penalty %", "BG penalty %",
               "energy overhead %", "power W", "migrations"});
  for (std::size_t i = 0; i < n_cells; ++i) {
    const PenaltyResult& r = results[i];
    table.add_row({std::to_string(cores[i / balancers.size()]),
                   balancers[i % balancers.size()],
                   Table::num(r.app_penalty_pct, 1),
                   Table::num(r.bg_penalty_pct, 1),
                   Table::num(r.energy_overhead_pct, 1),
                   Table::num(r.combined.avg_power_watts, 1),
                   std::to_string(r.combined.lb_migrations)});
  }
  emit_table(table, csv, out);
  return 0;
}

/// The run's interference sources, as the timeline header names them.
std::string interference_label(const ScenarioConfig& config) {
  std::string label;
  if (config.with_background)
    label = std::to_string(config.bg_cores) + "-core background job";
  if (config.tenants > 0) {
    if (!label.empty()) label += " and ";
    label += std::to_string(config.tenants) +
             (config.tenants == 1 ? " tenant VM" : " tenant VMs");
  }
  return label.empty() ? "no interference" : label;
}

int cmd_timeline(Options& options, std::ostream& out) {
  ScenarioConfig config = config_from(options);
  // The tracer is an execution observer, which needs a one-shard host.
  CLB_CHECK_MSG(config.shards == 1,
                "timeline does not support --shards > 1; got --shards="
                    << config.shards);
  const int width = static_cast<int>(options.get_int("width", 100));
  options.check_unused();

  TimelineTracer tracer;
  const RunResult r = run_scenario(config, &tracer);
  const SimTime end = r.app_elapsed;

  out << config.app.name << " on " << config.app_cores << " cores, '"
      << config.balancer << "', " << interference_label(config) << "\n"
      << "finished in " << end.to_string() << " with " << r.lb_migrations
      << " migrations\n\n";
  tracer.render_ascii(out, config.app_cores, SimTime::zero(), end, width);
  out << "\nper-core utilization (wall-interval semantics):\n";
  profile_table(
      profile_cores(tracer, config.app_cores, SimTime::zero(), end))
      .print(out);
  out << "\ntask wall-duration histogram (interference = long tail):\n";
  task_duration_histogram(tracer, config.app.name).print(out, "ms", 40);
  return 0;
}

int cmd_record(Options& options, std::ostream& out) {
  ScenarioConfig config = config_from(options);
  const std::string path = options.get_string("out");
  CLB_CHECK_MSG(!path.empty(), "record requires --out=FILE");
  options.check_unused();

  std::ofstream file{path};
  CLB_CHECK_MSG(file.good(), "cannot open " << path << " for writing");
  // Borrowed, not handed over: the job that would own it is gone by the
  // time the window count is read.
  RecordingLb recorder{make_balancer(config.balancer, config.lb_options),
                       &file};
  const RunResult r = run_scenario_with(config, recorder);
  out << "recorded " << recorder.windows_recorded() << " LB windows to "
      << path << " (run took " << r.app_elapsed.to_string() << ", "
      << r.lb_migrations << " migrations)\n";
  return 0;
}

int cmd_replay(Options& options, std::ostream& out) {
  const std::string path = options.get_string("trace");
  CLB_CHECK_MSG(!path.empty(), "replay requires --trace=FILE");
  const std::string balancer_name =
      options.get_string("balancer", "ia-refine");
  LbOptions lb_options;
  lb_options.epsilon_fraction = options.get_double("epsilon", 0.05);
  const bool csv = options.get_bool("csv", false);
  options.check_unused();

  std::ifstream file{path};
  CLB_CHECK_MSG(file.good(), "cannot open " << path);
  const std::vector<LbStats> windows = read_stats(file);
  const auto balancer = make_balancer(balancer_name, lb_options);
  const std::vector<ReplayRow> rows = replay_stats(windows, *balancer);

  Table table({"window", "max load before (s)", "max load after (s)",
               "migrations"});
  int total_migrations = 0;
  for (const ReplayRow& row : rows) {
    table.add_row({std::to_string(row.window),
                   Table::num(row.max_load_before, 4),
                   Table::num(row.max_load_after, 4),
                   std::to_string(row.migrations)});
    total_migrations += row.migrations;
  }
  emit_table(table, csv, out);
  out << balancer_name << ": " << total_migrations
      << " total migrations over " << rows.size() << " windows\n";
  return 0;
}

int cmd_list_apps(std::ostream& out) {
  for (const auto& name : app_names()) out << name << '\n';
  return 0;
}

int cmd_list_balancers(std::ostream& out) {
  for (const auto& name : balancer_names()) out << name << '\n';
  return 0;
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  if (args.empty()) {
    err << kUsage;
    return 1;
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  Options options{rest};
  try {
    if (command == "penalty") return cmd_penalty(options, out);
    if (command == "sweep") return cmd_sweep(options, out);
    if (command == "timeline") return cmd_timeline(options, out);
    if (command == "record") return cmd_record(options, out);
    if (command == "replay") return cmd_replay(options, out);
    if (command == "apps") return cmd_list_apps(out);
    if (command == "balancers") return cmd_list_balancers(out);
    if (command == "help" || command == "--help") {
      out << kUsage;
      return 0;
    }
    err << "unknown command: " << command << "\n\n" << kUsage;
    return 1;
  } catch (const CheckFailure& failure) {
    err << "error: " << failure.what() << '\n';
    return 1;
  }
}

}  // namespace cloudlb
