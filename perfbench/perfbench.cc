// The CloudLB benchmark program. It runs one workload's penalty
// experiments for a fixed time, checks every output, and prints the
// end-to-end metrics (--trace 0) or the per-layer metrics of a traced run
// (--trace 1); the last line of stdout is one JSON object. Build and run
// it through perfbench/run.py; perfbench/README.md defines the workloads
// and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "apps/jacobi2d.h"
#include "apps/mol3d.h"
#include "cli/cli.h"
#include "core/balancer_factory.h"
#include "core/forecasting_estimator.h"
#include "core/scenario.h"
#include "lb/refinement.h"
#include "traced_scenario.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using cloudlb::PenaltyResult;
using cloudlb::RunResult;
using cloudlb::ScenarioConfig;

// ---------------------------------------------------------------- inputs

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  int iterations = 0;            ///< > 0 shrinks the workload (self-test)
  bool inject_mismatch = false;  ///< corrupts one result (self-test)
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        args.trace = std::stoi(value);
      } else if (key == "--iterations") {
        args.iterations = std::stoi(value);
      } else if (key == "--inject-mismatch") {
        args.inject_mismatch = std::stoi(value) != 0;
      } else {
        std::cerr << "perfbench: unknown option " << key << '\n';
        return std::nullopt;
      }
    } catch (const std::exception&) {
      std::cerr << "perfbench: bad value for " << key << ": " << value << '\n';
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || !have_seed ||
      !(args.seconds > 0.0) || (args.trace != 0 && args.trace != 1) ||
      args.iterations < 0) {
    std::cerr << "usage: cloudlb_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--iterations N]\n";
    return std::nullopt;
  }
  return args;
}

/// Experiments per run of a seeded workload. One seed's penalties vary a
/// lot (the tenant field's few long bursts land differently), so a run
/// reports the mean over this many seeds derived from --seed.
constexpr int kSubSeeds = 40;

/// One workload: a `cloudlb penalty` configuration, built both as a
/// ScenarioConfig and as the equivalent CLI flags (the benchmark checks
/// that the two give the same penalties).
struct Workload {
  std::vector<std::string> flags;
  bool seeded = false;  ///< inputs depend on --seed
  ScenarioConfig config;
  /// The experiments of one run: `config` alone, or kSubSeeds copies of
  /// it with derived seeds when the workload is seeded.
  std::vector<ScenarioConfig> configs;
};

std::optional<Workload> make_workload(const Args& args) {
  Workload w;
  ScenarioConfig& c = w.config;
  // Where `cloudlb penalty`'s defaults differ from ScenarioConfig's.
  c.bg_iterations = 150;
  c.shard_workers = 1;
  if (args.workload == "paper-jacobi32") {
    c.app.name = "jacobi2d";
    c.app_cores = 32;
    c.app.iterations = 300;
  } else if (args.workload == "cloud-mol3d-tenants") {
    c.app.name = "mol3d";
    c.app_cores = 32;
    c.app.iterations = 200;
    c.tenants = 16;
    c.with_background = false;
    c.lb_options.robustness.estimator_mode = cloudlb::EstimatorMode::kRegress;
    w.seeded = true;
  } else if (args.workload == "scale-jacobi128-sharded") {
    c.app.name = "jacobi2d";
    c.app_cores = 128;
    c.app.iterations = 200;
    c.shards = 4;
    c.shard_workers = std::min(cloudlb::hardware_jobs(), 4);
  } else {
    std::cerr << "perfbench: unknown workload " << args.workload << '\n';
    return std::nullopt;
  }
  if (args.iterations > 0) {
    c.app.iterations = args.iterations;
    c.bg_iterations = args.iterations;
  }
  if (!w.seeded) w.configs = {c};
  for (int i = 0; w.seeded && i < kSubSeeds; ++i) {
    ScenarioConfig sub = c;
    sub.app.seed = args.seed * kSubSeeds + static_cast<std::uint64_t>(i);
    sub.tenant_config.seed = ~sub.app.seed;
    w.configs.push_back(sub);
  }
  c = w.configs.front();

  w.flags = {"--app=" + c.app.name,
             "--cores=" + std::to_string(c.app_cores),
             "--iterations=" + std::to_string(c.app.iterations),
             "--bg-iterations=" + std::to_string(c.bg_iterations),
             "--balancer=" + c.balancer,
             "--lb-period=" + std::to_string(c.lb_period)};
  if (c.tenants > 0)
    w.flags.push_back("--tenants=" + std::to_string(c.tenants));
  const cloudlb::EstimatorMode mode = c.lb_options.robustness.estimator_mode;
  if (mode != cloudlb::EstimatorMode::kPersist)
    w.flags.push_back("--estimator=" + cloudlb::estimator_mode_name(mode));
  if (c.shards > 1) {
    w.flags.push_back("--shards=" + std::to_string(c.shards));
    w.flags.push_back("--jobs=" + std::to_string(c.shard_workers));
  }
  return w;
}

/// Grid points (stencils) or particles (Mol3D) updated by one penalty
/// experiment, computed from the layouts: the app runs twice (base and
/// interfered), the BG job twice (interfered and solo).
double points_updated(const ScenarioConfig& c) {
  auto iterations = [&](int app_default) {
    return c.app.iterations > 0 ? c.app.iterations : app_default;
  };
  double app = 0.0;
  if (c.app.name == "jacobi2d") {
    const cloudlb::StencilLayout layout = cloudlb::Jacobi2dConfig{}.layout;
    app = static_cast<double>(layout.grid_x) * layout.grid_y *
          iterations(layout.iterations);
  } else if (c.app.name == "mol3d") {
    const cloudlb::Mol3dConfig mol;
    app = static_cast<double>(mol.num_particles) * iterations(mol.iterations);
  }
  const cloudlb::BackgroundJobSpec bg;
  const double bg_points =
      c.with_background
          ? static_cast<double>(bg.grid_x) * bg.grid_y * c.bg_iterations
          : 0.0;
  return 2.0 * app + 2.0 * bg_points;
}

// ---------------------------------------------------------------- checks

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_counters(const cloudlb::RuntimeJob::Counters& a,
                   const cloudlb::RuntimeJob::Counters& b) {
  return a.tasks_executed == b.tasks_executed &&
         a.messages_sent == b.messages_sent && a.lb_steps == b.lb_steps &&
         a.migrations == b.migrations && a.migrated_bytes == b.migrated_bytes &&
         a.migration_retries == b.migration_retries &&
         a.migrations_failed == b.migrations_failed;
}

bool same_run(const RunResult& a, const RunResult& b) {
  return a.app_elapsed == b.app_elapsed && a.bg_elapsed == b.bg_elapsed &&
         same_bits(a.energy_joules, b.energy_joules) &&
         same_bits(a.avg_power_watts, b.avg_power_watts) &&
         same_counters(a.app_counters, b.app_counters) &&
         a.lb_migrations == b.lb_migrations;
}

bool same_penalty(const PenaltyResult& a, const PenaltyResult& b) {
  return same_run(a.base, b.base) && same_run(a.combined, b.combined) &&
         a.bg_solo == b.bg_solo &&
         same_bits(a.app_penalty_pct, b.app_penalty_pct) &&
         same_bits(a.bg_penalty_pct, b.bg_penalty_pct) &&
         same_bits(a.energy_overhead_pct, b.energy_overhead_pct);
}

/// Counts operations and the ones that threw or failed an output check.
class Tally {
 public:
  /// Runs `op`, which returns whether its outputs are correct.
  template <typename Op>
  void attempt(const std::string& what, Op&& op) {
    ++attempted_;
    try {
      if (!op()) fail(what + ": output mismatch");
    } catch (const std::exception& e) {
      fail(what + ": " + e.what());
    }
  }

  [[nodiscard]] int attempted() const { return attempted_; }
  [[nodiscard]] int failed() const { return failed_; }

 private:
  void fail(const std::string& what) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << '\n';
  }

  int attempted_ = 0;
  int failed_ = 0;
};

/// Runs `cloudlb penalty` with the workload's flags and compares the
/// printed penalties and migrations with `expected`.
bool matches_cli(const Workload& w, const PenaltyResult& expected) {
  std::vector<std::string> argv{"penalty"};
  argv.insert(argv.end(), w.flags.begin(), w.flags.end());
  argv.push_back("--csv");
  std::ostringstream out;
  std::ostringstream err;
  if (cloudlb::run_cli(argv, out, err) != 0) {
    std::cerr << "perfbench: cloudlb penalty failed: " << err.str();
    return false;
  }
  std::map<std::string, std::string> printed;
  std::istringstream lines{out.str()};
  for (std::string line; std::getline(lines, line);) {
    const auto comma = line.find(',');
    if (comma != std::string::npos)
      printed[line.substr(0, comma)] = line.substr(comma + 1);
  }
  using cloudlb::Table;
  return printed["app penalty (%)"] ==
             Table::num(expected.app_penalty_pct, 1) &&
         printed["bg penalty (%)"] == Table::num(expected.bg_penalty_pct, 1) &&
         printed["energy overhead (%)"] ==
             Table::num(expected.energy_overhead_pct, 1) &&
         printed["migrations"] ==
             std::to_string(expected.combined.lb_migrations);
}

// ---------------------------------------------------------------- numbers

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Peak resident memory of this process image: VmHWM of /proc/self/status
/// where it exists. getrusage's ru_maxrss is only the fallback, because
/// it keeps the peak of the image that called exec: started from
/// run.py, it reads the Python launcher's peak, about twice this
/// program's.
double peak_rss_mib() {
  std::ifstream status{"/proc/self/status"};
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;
  std::string note;
};

void print_report(const Args& args, const Workload& w, const Tally& tally,
                  const std::vector<Metric>& shown,
                  const std::vector<Metric>& reported) {
  std::cout << "perfbench: workload " << args.workload << ", seed "
            << args.seed << (w.seeded ? "" : " (inputs do not use it)")
            << ", trace " << args.trace << ", " << args.seconds << " s\n";
  std::cout << "inputs: cloudlb penalty";
  for (const std::string& flag : w.flags) std::cout << ' ' << flag;
  if (w.seeded)
    std::cout << "\n  x " << w.configs.size()
              << " experiments i: AppSpec::seed = " << kSubSeeds
              << " * seed + i, TenantFieldConfig::seed = ~AppSpec::seed";
  std::cout << "\nchecks: " << tally.attempted() << " attempted, "
            << tally.failed() << " failed\n";
  for (const Metric& m : shown) {
    char line[128];
    std::snprintf(line, sizeof line, "  %-30s %.6g %s  (%s)", m.name.c_str(),
                  m.value, m.unit.c_str(), m.better.c_str());
    std::cout << line;
    if (!m.note.empty()) std::cout << "  " << m.note;
    std::cout << '\n';
  }

  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (tally.failed() == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted()
       << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
  for (std::size_t i = 0; i < reported.size(); ++i) {
    const double v = std::isfinite(reported[i].value) ? reported[i].value : 0.0;
    json << (i == 0 ? "" : ", ") << '"' << reported[i].name
         << "\": {\"value\": " << v << ", \"unit\": \"" << reported[i].unit
         << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// ---------------------------------------------------------------- runs

constexpr int kMinSamples = 3;
constexpr int kSetupRounds = 15;

/// Forwards to the workload's balancer and reads the host clock at each
/// call, cutting a scenario run into laps of one LB period each.
class LapBalancer final : public cloudlb::LoadBalancer {
 public:
  LapBalancer(const ScenarioConfig& config,
              std::vector<Clock::time_point>& stamps)
      : inner_{cloudlb::make_balancer(config.balancer, config.lb_options)},
        stamps_{stamps} {}

  std::string name() const override { return inner_->name(); }

  std::vector<cloudlb::PeId> assign(const cloudlb::LbStats& stats) override {
    stamps_.push_back(Clock::now());
    return inner_->assign(stats);
  }

 private:
  std::unique_ptr<cloudlb::LoadBalancer> inner_;
  std::vector<Clock::time_point>& stamps_;
};

/// run_penalty_experiment's three runs, made through run_scenario_with
/// with the host clock read at the start, at each call into the
/// application's balancer and after each run. Appends the durations in
/// between (the laps) to `laps`. The result must equal
/// run_penalty_experiment's bit for bit; timed_experiment checks that.
PenaltyResult lapped_penalty_experiment(const ScenarioConfig& config,
                                        std::vector<double>& laps) {
  std::vector<Clock::time_point> stamps{Clock::now()};
  auto run = [&](const ScenarioConfig& c) {
    LapBalancer balancer{c, stamps};
    RunResult r = cloudlb::run_scenario_with(c, balancer);
    stamps.push_back(Clock::now());
    return r;
  };
  PenaltyResult out;
  ScenarioConfig solo = config;
  solo.with_background = false;
  solo.tenants = 0;
  solo.faults.clear();
  out.base = run(solo);
  out.combined = run(config);
  out.app_penalty_pct = cloudlb::percent_increase(
      out.combined.app_elapsed.to_seconds(), out.base.app_elapsed.to_seconds());
  if (out.combined.bg_elapsed.has_value()) {
    out.bg_solo = cloudlb::run_background_solo(config);
    stamps.push_back(Clock::now());
    out.bg_penalty_pct = cloudlb::percent_increase(
        out.combined.bg_elapsed->to_seconds(), out.bg_solo.to_seconds());
  }
  out.energy_overhead_pct = cloudlb::percent_increase(
      out.combined.energy_joules, out.base.energy_joules);
  for (std::size_t i = 1; i < stamps.size(); ++i)
    laps.push_back(
        std::chrono::duration<double>(stamps[i] - stamps[i - 1]).count());
  return out;
}

/// Times one untraced experiment. Its result must equal `reference`, the
/// first result of the same configuration, or becomes it; the first
/// configuration's reference comes from run_penalty_experiment itself.
/// `lap_minima` keeps the run's fastest time of each lap so far; every
/// experiment must make the same number of laps (all configurations of a
/// workload have the same iteration counts and LB period).
void timed_experiment(const ScenarioConfig& config,
                      std::optional<PenaltyResult>& reference, Tally& tally,
                      std::vector<double>& wall,
                      std::vector<double>& lap_minima, bool corrupt) {
  tally.attempt("untraced experiment", [&] {
    std::vector<double> laps;
    const Clock::time_point start = Clock::now();
    PenaltyResult r = lapped_penalty_experiment(config, laps);
    wall.push_back(seconds_since(start));
    if (corrupt)
      r.energy_overhead_pct = std::nextafter(r.energy_overhead_pct, 1e9);
    if (!reference) reference = r;
    if (lap_minima.empty()) lap_minima = laps;
    if (laps.size() != lap_minima.size()) return false;
    for (std::size_t k = 0; k < laps.size(); ++k)
      lap_minima[k] = std::min(lap_minima[k], laps[k]);
    return same_penalty(r, *reference);
  });
}

/// One set-up-only experiment: the host time spent in its setup spans
/// (machine, VMs, jobs and chares of every scenario, up to the first
/// event).
void setup_round(const Workload& w, Tally& tally,
                 std::vector<double>& samples) {
  tally.attempt("setup-only experiment", [&] {
    SpanLog log;
    traced_penalty_experiment(w.config, log, Stage::kSetup);
    double total = 0.0;
    for (const Span& s : log.spans())
      if (s.name == "setup") total += s.seconds();
    samples.push_back(total);
    return true;
  });
}

/// The untraced warm-up experiment; its result is the reference the
/// later experiments of `config` must repeat.
std::optional<PenaltyResult> reference_experiment(const ScenarioConfig& config,
                                                  Tally& tally) {
  std::optional<PenaltyResult> reference;
  tally.attempt("reference experiment", [&] {
    reference = cloudlb::run_penalty_experiment(config);
    return true;
  });
  if (!reference) std::cerr << "perfbench: the reference experiment failed\n";
  return reference;
}

int run_untraced(const Args& args, const Workload& w) {
  Tally tally;
  const std::size_t n = w.configs.size();
  std::vector<std::optional<PenaltyResult>> references(n);
  references[0] = reference_experiment(w.config, tally);
  if (!references[0]) return 1;

  // Cycle through the run's configurations until the time is up and each
  // has run at least once. Set-up rounds are spread over the same span
  // of time, so both see the host's quiet and busy stretches alike.
  std::vector<double> wall;
  std::vector<double> lap_minima;
  std::vector<double> setup;
  const Clock::time_point start = Clock::now();
  std::size_t i = 0;
  for (; seconds_since(start) < args.seconds || i < n ||
         i < static_cast<std::size_t>(kMinSamples);
       ++i) {
    timed_experiment(w.configs[i % n], references[i % n], tally, wall,
                     lap_minima, args.inject_mismatch && i == 0);
    setup_round(w, tally, setup);
  }
  for (; i < static_cast<std::size_t>(kSetupRounds); ++i)
    setup_round(w, tally, setup);
  const PenaltyResult& reference = *references[0];

  if (w.config.shards > 1) {
    tally.attempt("one shard worker equals many", [&] {
      ScenarioConfig serial = w.config;
      serial.shard_workers = 1;
      return same_penalty(cloudlb::run_penalty_experiment(serial), reference);
    });
  }
  tally.attempt("cloudlb penalty prints the same penalties", [&] {
    // `cloudlb penalty` has no seed flag: compare at the library's
    // default seeds.
    Workload at_defaults = w;
    at_defaults.config.app.seed = cloudlb::AppSpec{}.seed;
    at_defaults.config.tenant_config.seed = cloudlb::TenantFieldConfig{}.seed;
    return matches_cli(
        at_defaults, w.seeded
                         ? cloudlb::run_penalty_experiment(at_defaults.config)
                         : reference);
  });

  // The simulated metrics of a seeded workload: means over its seeds.
  PenaltyResult r;
  r.app_penalty_pct = r.bg_penalty_pct = r.energy_overhead_pct = 0.0;
  int results = 0;
  for (const std::optional<PenaltyResult>& ref : references) {
    if (!ref) continue;
    ++results;
    r.app_penalty_pct += ref->app_penalty_pct;
    r.bg_penalty_pct += ref->bg_penalty_pct;
    r.energy_overhead_pct += ref->energy_overhead_pct;
  }
  r.app_penalty_pct /= results;
  r.bg_penalty_pct /= results;
  r.energy_overhead_pct /= results;
  const std::string simulated =
      w.seeded ? "simulated; mean of " + std::to_string(results) + " seeds"
               : "simulated";
  // Co-located load on the host slows a run in bursts and stretches, by
  // up to half. Each lap's fastest time over the run's experiments misses
  // a burst unless it hit that lap every time.
  char spread[200];
  std::snprintf(spread, sizeof spread,
                "sum of %zu lap minima; whole experiments n=%zu: min %.4f, "
                "median %.4f, p75 %.4f, max %.4f",
                lap_minima.size(), wall.size(), quantile(wall, 0.0),
                median(wall), quantile(wall, 0.75), quantile(wall, 1.0));
  char setup_spread[120];
  std::snprintf(setup_spread, sizeof setup_spread,
                "min of n=%zu set-ups; median %.6f, max %.6f", setup.size(),
                median(setup), quantile(setup, 1.0));
  const double failed_frac = ratio(tally.failed(), tally.attempted());
  const std::vector<Metric> metrics = {
      {"wall_s", std::accumulate(lap_minima.begin(), lap_minima.end(), 0.0),
       "s", "lower", spread},
      // The minimum too: the median of a run's set-ups moves with the
      // host's load as much as whole experiments do.
      {"setup_s", quantile(setup, 0.0), "s", "lower", setup_spread},
      {"peak_rss_mb", peak_rss_mib(), "MiB", "lower", "VmHWM"},
      {"app_penalty_pct", r.app_penalty_pct, "%", "lower", simulated},
      {"bg_penalty_pct", r.bg_penalty_pct, "%", "lower",
       w.config.with_background ? simulated : "simulated; no BG job here"},
      {"energy_overhead_pct", r.energy_overhead_pct, "%", "lower", simulated},
      {"failed_frac", failed_frac, "ratio", "lower",
       "also the JSON's failed / attempted"},
  };
  // bg_penalty_pct and failed_frac are 0 on a correct tenant run, so the
  // JSON carries failures as failed/attempted and leaves both out.
  std::vector<Metric> reported;
  for (const Metric& m : metrics)
    if (m.name != "bg_penalty_pct" && m.name != "failed_frac")
      reported.push_back(m);
  print_report(args, w, tally, metrics, reported);
  return 0;
}

/// Per-experiment numbers from one traced experiment's spans.
struct TracedSample {
  double experiment_s = 0.0;
  double setup_s = 0.0;
  double setup_self_s = 0.0;
  double populate_s = 0.0;
  double drive_s = 0.0;
  double drive_self_s = 0.0;
  double lb_assign_s = 0.0;
  double teardown_s = 0.0;
};

/// Totals of one experiment's spans by name; self time is a span's
/// duration minus its direct children's.
TracedSample sample_of(const SpanLog& log, int experiment) {
  const std::vector<Span>& spans = log.spans();
  std::vector<double> children(spans.size(), 0.0);
  for (const Span& s : spans)
    if (s.experiment == experiment && s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)] += s.seconds();
  TracedSample out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.experiment != experiment) continue;
    const double d = s.seconds();
    if (s.name == "experiment") out.experiment_s += d;
    if (s.name == "setup") {
      out.setup_s += d;
      out.setup_self_s += d - children[i];
    }
    if (s.name == "apps.populate") out.populate_s += d;
    if (s.name == "drive") {
      out.drive_s += d;
      out.drive_self_s += d - children[i];
    }
    if (s.name == "lb.assign") out.lb_assign_s += d;
    if (s.name == "teardown") out.teardown_s += d;
  }
  return out;
}

/// The counts of a traced experiment that must repeat exactly.
struct Counts {
  std::uint64_t events = 0;
  std::uint64_t sharded_events = 0;
  std::uint64_t windows = 0;
  std::uint64_t global_steps = 0;
  std::uint64_t rewinds = 0;
  cloudlb::RuntimeJob::Counters jobs;
  int lb_calls = 0;
  int productive = 0;
  int mispredicted = 0;

  bool operator==(const Counts& o) const {
    return events == o.events && sharded_events == o.sharded_events &&
           windows == o.windows && global_steps == o.global_steps &&
           rewinds == o.rewinds && same_counters(jobs, o.jobs) &&
           lb_calls == o.lb_calls && productive == o.productive &&
           mispredicted == o.mispredicted;
  }
};

Counts counts_of(const ExperimentTrace& t) {
  Counts c;
  for (const ScenarioTrace& s : t.scenarios) {
    c.events += s.events;
    if (s.sharded) c.sharded_events += s.events;
    c.windows += s.windows;
    c.global_steps += s.global_steps;
    c.rewinds += s.rewinds;
    c.jobs.tasks_executed += s.jobs.tasks_executed;
    c.jobs.messages_sent += s.jobs.messages_sent;
    c.jobs.lb_steps += s.jobs.lb_steps;
    c.jobs.migrations += s.jobs.migrations;
    c.jobs.migrated_bytes += s.jobs.migrated_bytes;
    c.jobs.migration_retries += s.jobs.migration_retries;
    c.jobs.migrations_failed += s.jobs.migrations_failed;
    c.lb_calls += static_cast<int>(s.lb_calls.size());
    for (const LbCall& call : s.lb_calls)
      if (call.assignment != call.stats.current_assignment()) ++c.productive;
    c.mispredicted += s.mispredicted_windows;
  }
  return c;
}

/// Replays the balancer's captured inputs through the estimator and the
/// refinement kernel alone, as core.estimate and lb.refine spans; the
/// replayed assignments must equal the recorded ones. Returns how many
/// refine calls ended fully balanced.
int replay(const ScenarioConfig& config, const ExperimentTrace& t,
           SpanLog& log) {
  int balanced = 0;
  const int root = log.begin("replay", -1);
  for (const ScenarioTrace& s : t.scenarios) {
    cloudlb::ProactiveBackgroundEstimator estimator{
        config.lb_options.robustness};
    for (const LbCall& call : s.lb_calls) {
      const int estimate = log.begin("core.estimate", root);
      const std::vector<double> background = estimator.estimate(call.stats);
      log.end(estimate);
      const int refine = log.begin("lb.refine", root);
      const cloudlb::RefinementResult result = cloudlb::refine_assignment(
          call.stats, background,
          cloudlb::make_refinement_options(config.lb_options));
      log.end(refine);
      CLB_CHECK_MSG(result.assignment == call.assignment,
                    "replayed refinement differs from the balancer's");
      if (result.fully_balanced) ++balanced;
    }
  }
  log.end(root);
  return balanced;
}

std::vector<double> span_durations(const SpanLog& log, const std::string& name,
                                   const std::vector<int>& experiments) {
  std::vector<double> out;
  for (const Span& s : log.spans())
    if (s.name == name && std::find(experiments.begin(), experiments.end(),
                                    s.experiment) != experiments.end())
      out.push_back(s.seconds());
  return out;
}

int run_traced(const Args& args, const Workload& w) {
  CLB_CHECK_MSG(w.config.balancer == "ia-refine",
                "the replay spans model the ia-refine balancer only");
  Tally tally;
  std::optional<PenaltyResult> reference =
      reference_experiment(w.config, tally);
  if (!reference) return 1;

  SpanLog log;
  std::vector<double> untraced_wall;
  std::vector<double> lap_minima;
  std::vector<int> good;  // experiment ids whose spans are complete
  std::vector<TracedSample> samples;
  std::optional<Counts> counts;
  int balanced = 0;
  auto traced_once = [&] {
    tally.attempt("traced experiment", [&] {
      log.next_experiment();
      const ExperimentTrace t =
          traced_penalty_experiment(w.config, log, Stage::kRun);
      const Counts c = counts_of(t);
      const int replay_balanced = replay(w.config, t, log);
      if (!same_penalty(t.penalty, *reference)) return false;
      if (counts.has_value() && !(c == *counts)) return false;
      counts = c;
      balanced = replay_balanced;
      good.push_back(log.experiment());
      samples.push_back(sample_of(log, log.experiment()));
      return true;
    });
  };
  const Clock::time_point start = Clock::now();
  for (int pair = 0; seconds_since(start) < args.seconds || pair < kMinSamples;
       ++pair) {
    // Alternate which side runs first so drift cannot favour either.
    if (pair % 2 == 1) traced_once();
    timed_experiment(w.config, reference, tally, untraced_wall, lap_minima,
                     args.inject_mismatch && pair == 0);
    if (pair % 2 == 0) traced_once();
  }
  const Counts c = counts.value_or(Counts{});

  auto med = [&](double TracedSample::*field) {
    std::vector<double> v;
    for (const TracedSample& s : samples) v.push_back(s.*field);
    return median(v);
  };
  auto med_ratio = [&](auto&& fn) {
    std::vector<double> v;
    for (const TracedSample& s : samples) v.push_back(fn(s));
    return median(v);
  };
  const double events = static_cast<double>(c.events);
  const double windows = static_cast<double>(c.windows);
  const double global_steps = static_cast<double>(c.global_steps);
  const double tasks = static_cast<double>(c.jobs.tasks_executed);
  const double points = points_updated(w.config);
  const double untraced = quantile(untraced_wall, 0.0);
  std::vector<double> traced_wall;
  for (const TracedSample& s : samples) traced_wall.push_back(s.experiment_s);
  const double traced_min = quantile(traced_wall, 0.0);

  const std::vector<Metric> metrics = {
      {"sim.events", events, "count", "lower", "exact; all scenarios"},
      {"sim.events_per_s",
       med_ratio(
           [&](const TracedSample& s) { return ratio(events, s.drive_s); }),
       "1/s", "higher", "per drive second"},
      {"sim.windows", windows, "count", "lower", "exact; sharded runs"},
      {"sim.global_steps", global_steps, "count", "lower",
       "exact; sharded runs"},
      {"sim.global_step_frac",
       ratio(global_steps, static_cast<double>(c.sharded_events)), "ratio",
       "lower", "global steps / sharded events"},
      {"sim.events_per_window",
       ratio(static_cast<double>(c.sharded_events) - global_steps, windows),
       "count", "higher", "windowed events / windows"},
      {"sim.rewinds", static_cast<double>(c.rewinds), "count", "lower",
       "exact"},
      {"runtime.drive_s", med_ratio([](const TracedSample& s) {
         return s.drive_s - s.lb_assign_s;
       }),
       "s", "lower", "drive minus lb.assign"},
      {"runtime.tasks_per_s", med_ratio([&](const TracedSample& s) {
         return ratio(tasks, s.drive_s - s.lb_assign_s);
       }),
       "1/s", "higher", ""},
      {"runtime.tasks", tasks, "count", "lower", "exact; all jobs"},
      {"runtime.messages", static_cast<double>(c.jobs.messages_sent), "count",
       "lower", "exact; all jobs"},
      {"runtime.lb_steps", static_cast<double>(c.jobs.lb_steps), "count",
       "lower", "exact"},
      {"runtime.migrations", static_cast<double>(c.jobs.migrations), "count",
       "lower", "exact"},
      {"runtime.migrated_mb",
       static_cast<double>(c.jobs.migrated_bytes) / (1024.0 * 1024.0), "MiB",
       "lower", "exact; decided volume"},
      {"runtime.migration_failed_frac",
       ratio(c.jobs.migrations_failed, c.jobs.migrations), "ratio", "lower",
       "failed / attempted"},
      {"apps.setup_s", med(&TracedSample::populate_s), "s", "lower",
       "populate_app + populate_wave2d"},
      {"apps.points_updated", points, "count", "lower",
       "exact; computed from layout"},
      {"apps.points_per_s",
       med_ratio(
           [&](const TracedSample& s) { return ratio(points, s.drive_s); }),
       "1/s", "higher", "computed points per drive second"},
      {"lb.assign_calls", static_cast<double>(c.lb_calls), "count", "lower",
       "exact"},
      {"lb.assign_us", 1e6 * median(span_durations(log, "lb.assign", good)),
       "us", "lower", "median per call"},
      {"lb.assign_s", med(&TracedSample::lb_assign_s), "s", "lower",
       "total per experiment"},
      {"lb.refine_us", 1e6 * median(span_durations(log, "lb.refine", good)),
       "us", "lower", "replayed, median per call"},
      {"lb.productive_frac", ratio(c.productive, c.lb_calls), "ratio",
       "higher", "steps moving >= 1 chare / steps"},
      {"lb.balanced_frac", ratio(balanced, c.lb_calls), "ratio", "higher",
       "refine calls ending fully_balanced / calls"},
      {"core.estimate_us",
       1e6 * median(span_durations(log, "core.estimate", good)), "us", "lower",
       "replayed, median per call"},
      {"core.mispredict_frac", ratio(c.mispredicted, c.lb_calls), "ratio",
       "lower", "mispredicted windows / LB steps"},
      {"trace_overhead_frac", ratio(traced_min - untraced, untraced), "ratio",
       "lower", "(traced - untraced wall_s) / untraced, minima"},
      {"span.setup.share", med_ratio([](const TracedSample& s) {
         return ratio(s.setup_s, s.experiment_s);
       }),
       "ratio", "lower", "of the traced experiment"},
      {"span.drive.share", med_ratio([](const TracedSample& s) {
         return ratio(s.drive_s, s.experiment_s);
       }),
       "ratio", "higher", "of the traced experiment"},
      {"span.teardown.share", med_ratio([](const TracedSample& s) {
         return ratio(s.teardown_s, s.experiment_s);
       }),
       "ratio", "lower", "of the traced experiment"},
      {"span.setup.self_s", med(&TracedSample::setup_self_s), "s", "lower",
       "setup minus apps.populate"},
      {"span.drive.self_s", med(&TracedSample::drive_self_s), "s", "lower",
       "drive minus lb.assign"},
  };
  std::cout << "traced experiments: " << samples.size()
            << ", untraced: " << untraced_wall.size()
            << "; wall_s (min) untraced " << untraced << " s, traced "
            << traced_min << " s"
            << (w.seeded ? " (first seed only)\n" : "\n");
  print_report(args, w, tally, metrics, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args = perfbench::parse_args(argc, argv);
  if (!args) return 2;
  const std::optional<perfbench::Workload> workload =
      perfbench::make_workload(*args);
  if (!workload) return 2;
  try {
    return args->trace == 1 ? perfbench::run_traced(*args, *workload)
                            : perfbench::run_untraced(*args, *workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
