// AMPI demo: the paper's adoption path for MPI codes. A 1D ring stencil
// written rank-style against the mini-AMPI facade (send/recv/allreduce/
// sync), over-decomposed into 32 "MPI processes" on 4 cores. Because
// ranks are migratable chares, the interference-aware balancer moves them
// off a core that a co-located tenant starts hammering mid-run — no
// change to the "MPI" program required beyond the periodic sync() call.

#include <cmath>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>

#include "core/balancer_factory.h"
#include "machine/machine.h"
#include "runtime/ampi.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/table.h"
#include "vm/interferer.h"
#include "vm/virtual_machine.h"

namespace {

using namespace cloudlb;
using ampi::Rank;

constexpr int kRanks = 32;
constexpr int kIterations = 48;
constexpr int kSyncEvery = 4;

/// The "MPI" program each rank runs: exchange halo values with ring
/// neighbours, relax, occasionally allreduce a residual, sync for LB.
void rank_main(Rank& self) {
  struct State {
    double x;
    int iter = 0;
  };
  auto st = std::make_shared<State>();
  st->x = std::sin(0.3 * self.rank());
  const int left = (self.rank() + kRanks - 1) % kRanks;
  const int right = (self.rank() + 1) % kRanks;

  const auto step_fn = std::make_shared<std::function<void()>>();
  // The stored lambda holds itself weakly: pending callbacks own the step,
  // so it is freed after the last one runs instead of leaking as a
  // self-cycle.
  *step_fn = [&self, st, left, right, weak = std::weak_ptr(step_fn)] {
    const auto step = weak.lock();
    if (st->iter == kIterations) {
      self.done();
      return;
    }
    const int tag = st->iter % 2;
    self.send(left, tag, {st->x});
    self.send(right, tag, {st->x});
    self.recv(left, tag, [&self, st, right, tag, step](std::vector<double> lv) {
      self.recv(right, tag, [&self, st, lv, step](std::vector<double> rv) {
        self.compute(SimTime::millis(8), [&self, st, lv, rv, step] {
          st->x = 0.25 * lv[0] + 0.5 * st->x + 0.25 * rv[0];
          ++st->iter;
          if (st->iter % kSyncEvery == 0 && st->iter < kIterations) {
            self.sync([step] { (*step)(); });
          } else {
            (*step)();
          }
        });
      });
    });
  };
  (*step_fn)();
}

double run_with(const std::string& balancer, int* migrations) {
  Simulator sim;
  Machine machine{sim, MachineConfig{.nodes = 1, .cores_per_node = 4, .core_speed_overrides = {}}};
  VirtualMachine vm{machine, "ampi", {0, 1, 2, 3}};
  JobConfig config;
  config.name = "ampi";
  config.lb_period = kSyncEvery;
  RuntimeJob job{sim, vm, config, make_balancer(balancer)};
  ampi::populate_ranks(job, kRanks, rank_main);

  // A tenant VM starts hogging core 2 a third of the way into the run.
  SyntheticInterferer hog{sim, machine, {2}};
  sim.schedule_at(SimTime::from_seconds(0.3), [&] { hog.start(); });

  job.start();
  while (!job.finished()) CLB_CHECK(sim.step());
  hog.stop();
  *migrations = job.counters().migrations;
  return job.elapsed().to_seconds();
}

}  // namespace

int main() {
  std::cout << "Mini-AMPI: " << kRanks << " 'MPI processes' on 4 cores, "
            << "tenant VM hits core 2 at t=0.3s\n\n";
  cloudlb::Table table({"balancer", "time (s)", "migrations"});
  for (const char* balancer : {"null", "ia-refine"}) {
    int migrations = 0;
    const double elapsed = run_with(balancer, &migrations);
    table.add_row({balancer, cloudlb::Table::num(elapsed, 3),
                   std::to_string(migrations)});
  }
  table.print(std::cout);
  std::cout << "\nranks are migratable user-level 'threads': the balancer "
               "relocates them away\nfrom the contended core without the "
               "MPI-style program changing at all.\n";
  return 0;
}
