#include "cli/cli.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>

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
#include "util/table.h"
#include "util/thread_pool.h"

namespace cloudlb {

namespace {

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> items;
  std::istringstream in{list};
  for (std::string item; std::getline(in, item, ',');) items.push_back(item);
  if (list.empty() || list.back() == ',') items.emplace_back();
  return items;
}

std::string join(const std::vector<std::string>& items, const char* sep) {
  std::string out;
  for (const std::string& item : items) out += (out.empty() ? "" : sep) + item;
  return out;
}

// The one balancer, or sweep's list.
std::vector<std::string> balancers_of(const CommandLine& line) {
  return split(line.text(line.command() == "sweep" ? "balancers" : "balancer"));
}

// ------------------------------------------------------------ constraints

// The fixed background job runs on the first bg_cores cores of the
// application's allocation, so it needs that many.
std::string fits_background(const CommandLine& line, const Flag&) {
  const std::vector<int> cores = line.ints("cores");
  const int bg = ScenarioConfig{}.bg_cores;
  if ((line.integer("tenants") > 0 && !line.boolean("with-bg")) ||
      *std::min_element(cores.begin(), cores.end()) >= bg)
    return "";
  return "--cores must leave room for the " + std::to_string(bg) +
         "-core background job; got --cores=" + line.text("cores");
}

// A job needs a chare per core: the stencils have 512 blocks, Mol3D 128
// cells.
std::string fits_app(const CommandLine& line, const Flag&) {
  const std::vector<int> cores = line.ints("cores");
  AppSpec app;
  app.name = line.text("app");
  const int chares = app_chares(app);
  if (*std::max_element(cores.begin(), cores.end()) <= chares) return "";
  return "--cores must not exceed the " + std::to_string(chares) +
         " chares of --app=" + app.name + "; got --cores=" + line.text("cores");
}

// --with-bg keeps the background job beside the tenants, and penalty's
// --jobs sizes the shard worker team; neither means anything alone.
std::string needs_partner(const CommandLine& line, const Flag& flag) {
  const bool jobs = std::string{flag.name} == "jobs";
  const std::string partner = jobs ? "shards" : "tenants";
  if (!line.given(flag.name) || line.integer(partner) > (jobs ? 1 : 0) ||
      (jobs && line.command() == "sweep"))
    return "";
  return "--" + std::string{flag.name} + " has no effect without --" +
         partner + (jobs ? " > 1" : " > 0") + "; got --" + partner + "=" +
         line.text(partner);
}

// The partitioned runtime has no tenant field (its burst chains live on
// one engine), and the timeline tracer is an execution observer, which
// needs a one-shard host. Both are rejected whatever the node count, so
// the answer does not depend on --cores.
std::string shard_rules(const CommandLine& line, const Flag&) {
  const std::string shards = "--shards=" + line.text("shards");
  if (line.integer("shards") > 1 && line.integer("tenants") > 0)
    return "--shards > 1 cannot be combined with --tenants > 0; got " +
           shards + " --tenants=" + line.text("tenants");
  if (line.integer("shards") > 1 && line.command() == "timeline")
    return "timeline does not support --shards > 1; got " + shards;
  return "";
}

// A flag the chosen balancer would silently ignore: the baselines estimate
// no background load, only the refinement strategies have a tolerance
// band, and gain-gated has no last-good fallback. sweep skips this, since
// one grid may mix balancers; its presets still fix the estimator mode.
std::string lb_rules(const CommandLine& line, const Flag& flag) {
  const std::string name = flag.name;
  if (name == "estimator") {
    LbOptions options;
    options.robustness.estimator_mode =
        estimator_mode_from_name(line.text(name));
    for (const std::string& balancer : balancers_of(line))
      if (std::string error = balancer_conflict(balancer, options);
          !error.empty())
        return error;
  }
  const std::string lb = balancers_of(line)[0];
  const std::string ignored =
      "--" + name + " has no effect with --balancer=" + lb + ", which ";
  if (!line.given(name) || line.command() == "sweep") return "";
  if (name == "epsilon")
    return contains({"null", "greedy", "random"}, lb)
               ? ignored + "has no tolerance band"
               : "";
  if (contains(baseline_balancer_names(), lb))
    return ignored + "estimates no background load";
  if (name == "lb-fallback" && lb == "gain-gated")
    return ignored + "has no last-good fallback";
  return "";
}

// The fault spec is parsed here, in the table pass, so a malformed one is
// rejected under the flag's name before any simulation runs.
std::string valid_fault_spec(const CommandLine& line, const Flag& flag) {
  const std::string spec = line.text(flag.name);
  if (spec.empty()) return "";
  try {
    static_cast<void>(FaultPlan::parse(spec));
  } catch (const CheckFailure& failure) {
    // Keep the parser's message, not the check's source location.
    std::string why = failure.what();
    for (const std::string cut : {" — ", "fault spec: "})
      if (const auto at = why.find(cut); at != std::string::npos)
        why = why.substr(at + cut.size());
    return "--" + std::string{flag.name} + ": " + why;
  }
  return "";
}

std::string required(const CommandLine& line, const Flag& flag) {
  if (!line.text(flag.name).empty()) return "";
  return line.command() + " requires --" + flag.name + "=FILE";
}

// ------------------------------------------------------------ flag table

// Bit i is the i-th row of kCommands below.
constexpr unsigned kPenalty = 1, kSweep = 2, kTimeline = 4, kRecord = 8,
                   kReplay = 16, kOneRun = kPenalty | kTimeline | kRecord,
                   kRuns = kOneRun | kSweep;

using enum FlagKind;

// Deliberately accepted: --bg-iterations and --bg-weight with tenants
// alone, where no background job runs, since perfbench's tenant workload
// passes --bg-iterations.
const Flag kFlags[] = {
    {"app", kRuns, kString, "jacobi2d",
     {.note = "application", .names = app_names}, "application to run",
     fits_app},
    {"balancer", kOneRun | kReplay, kString, "ia-refine",
     {.note = "balancer", .names = balancer_names}, "strategy to run"},
    {"balancers", kSweep, kStringList, "null,ia-refine",
     {.note = "balancer", .names = balancer_names}, "strategies to compare"},
    {"cores", kOneRun, kInt, "8", {.lo = 1}, "cores", fits_background},
    {"cores", kSweep, kIntList, "4,8,16,32", {.lo = 1}, "core counts",
     fits_background},
    {"iterations", kRuns, kInt, "60", {.lo = 1}, "application iterations"},
    {"lb-period", kRuns, kInt, "5", {.lo = 0}, "iterations between LB steps"},
    {"epsilon", kRuns | kReplay, kDouble, "0.05", {.lo = 0},
     "refinement tolerance, as a fraction of T_avg", lb_rules},
    {"bg-iterations", kRuns, kInt, "150", {.lo = 1}, "background iterations"},
    {"bg-weight", kRuns, kDouble, "1.0", {.lo = 0, .open_lo = true},
     "OS share of the background job's VM"},
    {"tenants", kRuns, kInt, "0", {.lo = 0},
     "bursty tenant VMs; they replace the background job unless --with-bg"},
    {"with-bg", kRuns, kBool, "false", {},
     "keep the 2-core background job beside the tenants", needs_partner},
    {"faults", kRuns, kString, "", {}, "fault spec (docs/fault-injection.md)",
     valid_fault_spec},
    {"migration-retries", kRuns, kInt, "0", {.lo = 0},
     "retries of a failed migration, with doubling backoff"},
    {"shards", kRuns, kInt, "1", {.lo = 1}, "event-engine shards", shard_rules},
    {"jobs", kPenalty | kSweep, kInt, "1", {.lo = 0},
     "threads for shard windows or sweep cells; 0 = all", needs_partner},
    {"lb-fallback", kRuns, kBool, "false", {},
     "keep the last good assignment after a garbage stats window", lb_rules},
    {"estimator", kRuns, kString, "persist",
     {.note = "estimator mode", .names = estimator_mode_names},
     "background-load forecast (docs/estimators.md)", lb_rules},
    {"estimator-window", kRuns, kInt, "0", {.lo = 3, .note = "clamp off"},
     "median-of-N outlier clamp on the estimate", lb_rules},
    {"estimator-clamp-factor", kRuns, kDouble, "4",
     {.lo = 1, .note = "a ceiling below the median would clamp everything"},
     "clamp ceiling over the window median", lb_rules},
    {"forecast-horizon", kRuns, kDouble, "1", {.lo = 0, .open_lo = true},
     "windows ahead to extrapolate", lb_rules},
    {"forecast-margin", kRuns, kDouble, "0", {.lo = 0},
     "confidence-band multiplier added to the forecast", lb_rules},
    {"width", kTimeline, kInt, "100", {.lo = 1}, "timeline characters"},
    {"out", kRecord, kString, "", {}, "trace file to write", required},
    {"trace", kReplay, kString, "", {}, "trace file to read", required},
    {"csv", kPenalty | kSweep | kReplay, kBool, "false", {}, "print CSV"},
};

// ------------------------------------------------------------ values

bool in_range(const Range& r, double value) {
  return std::isfinite(value) &&
         (value > r.lo || (value == r.lo && !r.open_lo));
}

// What a range accepts, e.g. "at least 1" or "0 (clamp off) or at least
// 3"; "" for a free-form string.
std::string range_text(const Flag& flag) {
  const Range& r = flag.range;
  if (r.names != nullptr) return "one of " + join(r.names(), "|");
  if (r.lo == -Range::kMax) return "";
  const bool off = !in_range(r, std::strtod(flag.fallback, nullptr));
  std::ostringstream lo;
  lo << r.lo << (flag.kind == kDouble && r.lo == std::floor(r.lo) ? ".0" : "");
  std::string text =
      off ? std::string{flag.fallback} + " (" + r.note + ") or " : "";
  text += r.open_lo ? "positive"
          : r.lo == 0 ? "non-negative"
                      : "at least " + lo.str();
  return r.note == nullptr || off ? text : text + " (" + r.note + ")";
}

// The error in one given value, or "".
std::string check_value(const Flag& flag, const std::string& text) {
  const std::string name = "--" + std::string{flag.name};
  const Range& r = flag.range;
  const bool list = flag.kind == kIntList || flag.kind == kStringList;
  if (flag.kind == kBool && !contains({"true", "false", "1", "0", "yes", "no"},
                                      text))
    return name + " expects a boolean, got '" + text + "'";
  for (const std::string& item : list ? split(text) : std::vector{text}) {
    if (list && item.empty()) return name + " has an empty item: " + text;
    if (r.names != nullptr && !contains(r.names(), item))
      return "unknown " + std::string{r.note} + ": " + item + " (" + name +
             " takes " + join(r.names(), "|") + ")";
    if (flag.kind == kBool || flag.kind == kString || flag.kind == kStringList)
      continue;
    char* end = nullptr;
    const double value =
        flag.kind == kDouble
            ? std::strtod(item.c_str(), &end)
            : static_cast<double>(std::strtoll(item.c_str(), &end, 10));
    const char* kind = flag.kind == kDouble ? "a number" : "an integer";
    if (*end != '\0' || item.empty() ||
        (flag.kind != kDouble && std::abs(value) > Range::kMax))
      return name + " expects " + kind + ", got '" + item + "'";
    if (!in_range(r, value) && item != flag.fallback)
      return name + " must be " + range_text(flag) + "; got " + item;
  }
  return "";
}

// ------------------------------------------------------------ commands

ScenarioConfig scenario_from(const CommandLine& line) {
  ScenarioConfig config;
  config.app.name = line.text("app");
  config.app.iterations = line.integer("iterations");
  config.app_cores = line.integer("cores");  // sweep sets both per cell
  config.balancer = balancers_of(line)[0];
  config.lb_period = line.integer("lb-period");
  config.lb_options.epsilon_fraction = line.number("epsilon");
  config.bg_iterations = line.integer("bg-iterations");
  config.bg_weight = line.number("bg-weight");
  config.tenants = line.integer("tenants");
  config.with_background = config.tenants == 0 || line.boolean("with-bg");
  config.faults = line.text("faults");
  config.job.migration_max_retries = line.integer("migration-retries");
  config.shards = line.integer("shards");
  LbRobustnessOptions& robustness = config.lb_options.robustness;
  robustness.fallback_on_insane_stats = line.boolean("lb-fallback");
  robustness.estimator_window = line.integer("estimator-window");
  robustness.estimator_clamp_factor = line.number("estimator-clamp-factor");
  robustness.estimator_mode = estimator_mode_from_name(line.text("estimator"));
  robustness.forecast_horizon = line.number("forecast-horizon");
  robustness.forecast_margin = line.number("forecast-margin");
  return config;
}

int cmd_penalty(const CommandLine& line, std::ostream& out) {
  ScenarioConfig config = scenario_from(line);
  // Windows merge canonically, so the output is independent of --jobs.
  const int jobs = line.integer("jobs");
  config.shard_workers = jobs == 0 ? hardware_jobs() : jobs;
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
  line.boolean("csv") ? table.print_csv(out) : table.print(out);
  return 0;
}

int cmd_sweep(const CommandLine& line, std::ostream& out) {
  const ScenarioConfig base = scenario_from(line);
  const std::vector<int> cores = line.ints("cores");
  const std::vector<std::string> balancers = balancers_of(line);

  // Each grid cell runs an independent pair of scenarios whose RNGs are
  // seeded from the cell's config, so the table is byte-identical for
  // every --jobs value; rows are emitted in cores-major order regardless
  // of which thread finished first.
  const std::size_t n_cells = cores.size() * balancers.size();
  const std::vector<PenaltyResult> results = parallel_map<PenaltyResult>(
      n_cells, line.integer("jobs"), [&](std::size_t i) {
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
  line.boolean("csv") ? table.print_csv(out) : table.print(out);
  return 0;
}

/// The run's interference sources, as the timeline header names them.
std::string interference_label(const ScenarioConfig& config) {
  std::vector<std::string> sources;
  if (config.with_background)
    sources.push_back(std::to_string(config.bg_cores) + "-core background job");
  if (config.tenants > 0)
    sources.push_back(std::to_string(config.tenants) +
                      (config.tenants == 1 ? " tenant VM" : " tenant VMs"));
  return sources.empty() ? "no interference" : join(sources, " and ");
}

int cmd_timeline(const CommandLine& line, std::ostream& out) {
  const ScenarioConfig config = scenario_from(line);
  TimelineTracer tracer;
  const RunResult r = run_scenario(config, &tracer);
  const SimTime end = r.app_elapsed;

  out << config.app.name << " on " << config.app_cores << " cores, '"
      << config.balancer << "', " << interference_label(config) << "\n"
      << "finished in " << end.to_string() << " with " << r.lb_migrations
      << " migrations\n\n";
  tracer.render_ascii(out, config.app_cores, SimTime::zero(), end,
                      line.integer("width"));
  out << "\nper-core utilization (wall-interval semantics):\n";
  profile_table(
      profile_cores(tracer, config.app_cores, SimTime::zero(), end))
      .print(out);
  out << "\ntask wall-duration histogram (interference = long tail):\n";
  task_duration_histogram(tracer, config.app.name).print(out, "ms", 40);
  return 0;
}

int cmd_record(const CommandLine& line, std::ostream& out) {
  const ScenarioConfig config = scenario_from(line);
  const std::string& path = line.text("out");
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

int cmd_replay(const CommandLine& line, std::ostream& out) {
  const std::string& path = line.text("trace");
  const std::string& balancer_name = line.text("balancer");
  LbOptions lb_options;
  lb_options.epsilon_fraction = line.number("epsilon");

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
  line.boolean("csv") ? table.print_csv(out) : table.print(out);
  out << balancer_name << ": " << total_migrations
      << " total migrations over " << rows.size() << " windows\n";
  return 0;
}

int cmd_list(const CommandLine& line, std::ostream& out) {
  for (const auto& name :
       line.command() == "apps" ? app_names() : balancer_names())
    out << name << '\n';
  return 0;
}

struct Command {
  const char* name;
  const char* summary;
  int (*run)(const CommandLine&, std::ostream&);  ///< nullptr: help
};

// In the bit order of kPenalty..kReplay.
const Command kCommands[] = {
    {"penalty", "run one experiment and report its penalties", cmd_penalty},
    {"sweep", "the Figure-2/4 grid of core counts x balancers", cmd_sweep},
    {"timeline", "run one scenario and draw per-core timelines", cmd_timeline},
    {"record", "run one scenario, recording every LB window", cmd_record},
    {"replay", "score a strategy offline on a recorded trace", cmd_replay},
    {"apps", "list bundled applications", cmd_list},
    {"balancers", "list balancer strategies", cmd_list},
    {"help", "this text; `cloudlb help <command>` lists its flags", nullptr},
};

const Command* find_command(const std::string& name) {
  for (const Command& command : kCommands)
    if (name == command.name) return &command;
  return nullptr;
}

// The overview, or one command's flags, each at its default.
int print_help(const Command* topic, std::ostream& out) {
  if (topic == nullptr) {
    out << "cloudlb — interference-aware load balancing playground\n\n"
           "usage: cloudlb <command> [--flag=value ...]\n\ncommands:\n";
    for (const Command& command : kCommands)
      out << "  " << std::left << std::setw(11) << command.name
          << command.summary << '\n';
    return 0;
  }
  out << "cloudlb " << topic->name << ": " << topic->summary << '\n';
  for (const Flag* flag : cli_flags(topic->name)) {
    const std::string range = range_text(*flag);
    // Streamed piecewise: GCC 12 at -O3 reports a false -Wrestrict on
    // `" (" + range + ")"` here.
    out << "  --" << flag->name;
    if (flag->kind != kBool) out << '=' << flag->fallback;
    out << "\n      " << flag->help;
    if (!range.empty()) out << " (" << range << ')';
    out << '\n';
  }
  return 0;
}

}  // namespace

std::vector<const Flag*> cli_flags(const std::string& command) {
  std::vector<const Flag*> flags;
  const Command* found = find_command(command);
  for (const Flag& flag : kFlags)
    if (found != nullptr && (flag.commands >> (found - kCommands) & 1U) != 0)
      flags.push_back(&flag);
  return flags;
}

CommandLine::CommandLine(std::string command,
                         const std::vector<std::string>& args)
    : command_{std::move(command)} {
  for (const Flag* flag : cli_flags(command_))
    values_.push_back(Value{flag, flag->fallback});
  std::vector<std::string> errors;
  bool values_ok = true;  // the rules read values, so they need all to parse
  for (std::size_t i = 0; i < args.size(); ++i) {
    const bool flag = args[i].starts_with("--");
    std::string key = flag ? args[i].substr(2) : "";
    std::string text = "true";  // a bare --flag
    if (const auto eq = key.find('='); eq != std::string::npos) {
      text = key.substr(eq + 1);
      key.resize(eq);
    } else if (flag && i + 1 < args.size() &&
               !args[i + 1].starts_with("--")) {
      text = args[++i];  // --key value
    }
    const auto value =
        std::find_if(values_.begin(), values_.end(),
                     [&key](const Value& v) { return key == v.flag->name; });
    std::string error =
        !flag ? command_ + " takes no positional argument; got '" + args[i] +
                    "'"
        : value == values_.end() ? command_ + " does not accept --" + key
        : value->given           ? "--" + key + " is given more than once"
                                 : check_value(*value->flag, text);
    if (error.empty())
      *value = Value{value->flag, std::move(text), true};
    else if (value != values_.end() && !value->given)
      values_ok = false;
    errors.push_back(std::move(error));
  }
  for (const Value& value : values_)
    if (values_ok && value.flag->constraint != nullptr)
      errors.push_back(value.flag->constraint(*this, *value.flag));
  std::erase(errors, "");
  if (!errors.empty()) throw UsageError{join(errors, "\n")};
}

const CommandLine::Value& CommandLine::at(const std::string& name) const {
  const auto value =
      std::find_if(values_.begin(), values_.end(),
                   [&name](const Value& v) { return name == v.flag->name; });
  CLB_CHECK_MSG(value != values_.end(), command_ << " has no --" << name);
  return *value;
}

bool CommandLine::boolean(const std::string& name) const {
  return contains({"true", "1", "yes"}, text(name));
}

double CommandLine::number(const std::string& name) const {
  return std::strtod(text(name).c_str(), nullptr);
}

std::vector<int> CommandLine::ints(const std::string& name) const {
  std::vector<int> out;
  for (const std::string& item : split(text(name)))
    out.push_back(static_cast<int>(std::strtol(item.c_str(), nullptr, 10)));
  return out;
}

int run_cli(const std::vector<std::string>& args, std::ostream& out,
            std::ostream& err) {
  const Command* command = find_command(
      args.empty() ? "" : args[0] == "--help" ? "help" : args[0]);
  try {
    if (command == nullptr)
      throw UsageError{args.empty() ? "no command given"
                                    : "unknown command: " + args[0]};
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (command->run != nullptr)
      return command->run(CommandLine{command->name, rest}, out);
    // help: the overview, or with a command name that command's flags.
    const Command* topic = rest.size() == 1 ? find_command(rest[0]) : nullptr;
    if (topic == nullptr) static_cast<void>(CommandLine{command->name, rest});
    return print_help(topic, out);
  } catch (const UsageError& error) {
    err << "cloudlb: " << error.what() << '\n';
    if (command == nullptr) {
      err << '\n';
      print_help(nullptr, err);
    }
    return 2;
  } catch (const CheckFailure& failure) {
    err << "error: " << failure.what() << '\n';
    return 1;
  }
}

}  // namespace cloudlb
