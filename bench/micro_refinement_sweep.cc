// Refinement-engine scaling sweep: wall time per LB invocation for the
// indexed O((T+M)·log P) engine vs the retained naive
// O(donors·T·|underset|) reference, over P ∈ {32, 256, 2048, 16384} ×
// chares ∈ {1k, 10k, 100k} (8×+ overdecomposition territory from the
// ROADMAP). The naive kernel is skipped where its quadratic blowup would
// take minutes; the indexed engine runs everywhere. Results are committed
// as bench/RESULTS_refinement_sweep.md.
//
// Usage: micro_refinement_sweep [--with-slow-naive]
//   --with-slow-naive also times the naive kernel on the largest grid
//   points instead of skipping them.

#include <chrono>
#include <cstring>
#include <iostream>
#include <string>

#include "core/background_estimator.h"
#include "lb/refinement.h"
#include "support/refinement_naive.h"
#include "util/rng.h"
#include "util/table.h"

namespace cloudlb {
namespace {

/// Interference-shaped instance mirroring the paper's scenario: ~25% of
/// PEs share their core with an interfering VM whose appetite is
/// comparable to the per-PE application load (0.5–2×), so the balancer
/// must drain most of the app work off the interfered PEs. Chare costs
/// vary 50× with a sprinkle of exact ties; the wall clock is sized per PE
/// so the /proc/stat-style estimator recovers the background exactly.
LbStats synthetic_stats(int pes, int chares, std::uint64_t seed) {
  Rng rng{seed};
  LbStats stats;
  stats.pes.resize(static_cast<std::size_t>(pes));
  for (int p = 0; p < pes; ++p) {
    auto& pe = stats.pes[static_cast<std::size_t>(p)];
    pe.pe = p;
    pe.core = p;
  }
  stats.chares.resize(static_cast<std::size_t>(chares));
  double total_app = 0.0;
  for (int c = 0; c < chares; ++c) {
    auto& ch = stats.chares[static_cast<std::size_t>(c)];
    ch.chare = c;
    ch.pe = static_cast<PeId>(rng.uniform_int(0, pes - 1));
    ch.cpu_sec = rng.next_double() < 0.1 ? 0.1 : rng.uniform(0.01, 0.5);
    ch.bytes = 65536;
    total_app += ch.cpu_sec;
    stats.pes[static_cast<std::size_t>(ch.pe)].task_cpu_sec += ch.cpu_sec;
  }
  const double per_pe_app = total_app / static_cast<double>(pes);
  for (auto& pe : stats.pes) {
    const double bg = rng.next_double() < 0.25
                          ? rng.uniform(0.5, 2.0) * per_pe_app
                          : 0.0;
    pe.core_idle_sec = 0.1 * per_pe_app;  // a little headroom
    pe.wall_sec = pe.task_cpu_sec + bg + pe.core_idle_sec;
  }
  return stats;
}

template <typename Fn>
double time_ms(Fn&& fn, int reps) {
  using clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    fn();
    const auto t1 = clock::now();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

}  // namespace
}  // namespace cloudlb

int main(int argc, char** argv) {
  using namespace cloudlb;

  bool with_slow_naive = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--with-slow-naive") == 0) with_slow_naive = true;

  constexpr int kPes[] = {32, 256, 2048, 16384};
  constexpr int kChares[] = {1'000, 10'000, 100'000};

  Table table({"P", "chares", "migrations", "indexed ms/invoc",
               "naive ms/invoc", "speedup"});

  for (const int pes : kPes) {
    for (const int chares : kChares) {
      const LbStats stats = synthetic_stats(pes, chares, 42);
      const auto background = estimate_background_load(stats);
      RefinementOptions options;
      options.epsilon_fraction = 0.05;

      int migrations = 0;
      const double indexed_ms = time_ms(
          [&] {
            migrations =
                refine_assignment(stats, background, options).migrations;
          },
          chares >= 100'000 ? 3 : 5);

      // The naive kernel is O(donors·T·|underset|); past ~2e8 scan steps a
      // grid point takes minutes, which defeats a quick sweep.
      const double naive_scan_estimate =
          static_cast<double>(pes) * static_cast<double>(chares);
      const bool run_naive =
          with_slow_naive || naive_scan_estimate <= 2048.0 * 100'000.0;

      double naive_ms = 0.0;
      if (run_naive) {
        naive_ms = time_ms(
            [&] {
              refine_assignment_naive(stats, background, options);
            },
            naive_scan_estimate >= 256.0 * 100'000.0 ? 1 : 3);
      }

      table.add_row(
          {std::to_string(pes), std::to_string(chares),
           std::to_string(migrations), Table::num(indexed_ms, 3),
           run_naive ? Table::num(naive_ms, 3) : "(skipped)",
           run_naive ? Table::num(naive_ms / indexed_ms, 1) + "x" : "-"});
      std::cerr << "done P=" << pes << " chares=" << chares << "\n";
    }
  }

  std::cout << "# refinement engine sweep: indexed vs naive kernel\n\n";
  table.print(std::cout);
  std::cout << "\n";
  table.print_csv(std::cout);
  return 0;
}
