#include "bench_common.h"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

namespace cloudlb::bench {

ScenarioConfig grid_config(const std::string& app, const std::string& balancer,
                           int cores) {
  ScenarioConfig config;
  config.app.name = app;
  config.app.iterations = 60;
  config.app_cores = cores;
  config.balancer = balancer;
  config.lb_period = 5;
  config.bg_iterations = 150;
  if (app == "mol3d") {
    // The paper observed the OS strongly favouring the background job for
    // Mol3D; model it as a 4× scheduler share, with enough BG work to
    // outlast even the heavily slowed noLB run.
    config.bg_weight = 4.0;
    config.bg_iterations = 900;
  }
  return config;
}

const PenaltyResult& PenaltyGrid::run(const std::string& app,
                                      const std::string& balancer,
                                      int cores) {
  std::ostringstream key;
  key << app << '/' << balancer << '/' << cores;
  Latched<PenaltyResult>& cell = entry(cache_, key.str());
  std::call_once(cell.once, [&] {
    // The interference-free baseline and the BG-solo run do not depend on
    // the balancer (there is nothing to migrate away from); share them
    // across the noLB/LB rows of a figure. The nested latch means the
    // first cell of an (app, cores) pair computes the baseline while
    // sibling cells wait on it, then reuse it.
    std::ostringstream base_key;
    base_key << app << '/' << cores;
    Latched<Baseline>& base = entry(baselines_, base_key.str());
    std::call_once(base.once, [&] {
      ScenarioConfig solo = grid_config(app, "null", cores);
      solo.with_background = false;
      base.value.base = run_scenario(solo);
      base.value.bg_solo = run_background_solo(grid_config(app, "null", cores));
    });

    cell.value =
        penalty_result(base.value.base,
                       run_scenario(grid_config(app, balancer, cores)),
                       base.value.bg_solo);
  });
  return cell.value;
}

void ParallelGrid::run_queued() {
  parallel_for(cells_.size(), jobs_, [this](std::size_t i) {
    const Cell& cell = cells_[i];
    grid_.run(cell.app, cell.balancer, cell.cores);
  });
  cells_.clear();
}

int parse_jobs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--jobs" && i + 1 < argc) {
      value = argv[i + 1];
    } else if (arg.rfind("--jobs=", 0) == 0) {
      value = arg.substr(7);
    } else {
      continue;
    }
    const int jobs = std::atoi(value.c_str());
    return jobs <= 0 ? hardware_jobs() : jobs;
  }
  if (const char* env = std::getenv("CLOUDLB_BENCH_JOBS")) {
    const int jobs = std::atoi(env);
    if (jobs > 0) return jobs;
    if (jobs == 0 && env[0] == '0') return hardware_jobs();
  }
  return 1;
}

void emit(const Table& table, const std::string& title) {
  std::cout << "== " << title << "\n\n";
  table.print(std::cout);
  if (std::getenv("CLOUDLB_BENCH_CSV") != nullptr) {
    std::cout << "\n[csv]\n";
    table.print_csv(std::cout);
  }
  std::cout << '\n';
}

}  // namespace cloudlb::bench
