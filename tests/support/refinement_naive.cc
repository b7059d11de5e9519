// Retained naive reference kernel for Algorithm 1 — the original
// O(donors × tasks × |underset|) nested-scan implementation, kept verbatim
// in spirit so the differential harness (tests/refinement_diff_test.cc) and
// the speedup sweep (bench/micro_refinement_sweep.cc) have an independent
// oracle for the indexed engine in refinement.cc. It shares the problem
// setup and the heavy/light/fits predicates with the indexed engine so the
// two can only diverge through selection logic, never through arithmetic.

#include <limits>
#include <queue>
#include <set>

#include "lb/refinement_internal.h"
#include "support/refinement_naive.h"

namespace cloudlb {

namespace {

struct NaiveHeapEntry {
  double load;
  PeId pe;
  bool prefer_low;
  bool operator<(const NaiveHeapEntry& o) const {
    if (load != o.load) return load < o.load;
    return prefer_low ? pe > o.pe : pe < o.pe;
  }
};

}  // namespace

RefinementResult refine_assignment_naive(
    const LbStats& stats, const std::vector<double>& external_load,
    const RefinementOptions& options) {
  RefinementResult result;
  result.assignment = stats.current_assignment();
  if (stats.pes.empty()) {
    result.fully_balanced = true;
    return result;
  }

  refinement_detail::Problem p =
      refinement_detail::build_problem(stats, external_load, options);
  if (p.t_avg <= 0.0) {
    refinement_detail::finalize(p, &result);
    return result;
  }

  const bool low = options.tie_break == RefinementTieBreak::kLowestId;
  auto cost = [&](ChareId c) {
    return stats.chares[static_cast<std::size_t>(c)].cpu_sec;
  };

  // createOverheapAndUnderset (Algorithm 1, lines 2-9).
  std::priority_queue<NaiveHeapEntry> overheap;
  std::set<PeId> underset;
  for (std::size_t i = 0; i < p.num_pes; ++i) {
    const auto pe = static_cast<PeId>(i);
    if (refinement_detail::is_heavy(p, pe)) {
      overheap.push(NaiveHeapEntry{p.load[i], pe, low});
    } else if (refinement_detail::is_light(p, pe)) {
      underset.insert(pe);
    }
  }

  int budget = options.max_migrations < 0 ? std::numeric_limits<int>::max()
                                          : options.max_migrations;
  while (!overheap.empty() && budget > 0) {
    const PeId donor = overheap.top().pe;
    overheap.pop();
    auto& donor_tasks = p.tasks[static_cast<std::size_t>(donor)];

    // getBestCoreAndTask: the donor's largest task that some underloaded
    // core can absorb without itself becoming overloaded (Eq. 3 guard);
    // among feasible receivers the least-loaded wins, ties by id policy.
    std::size_t best_task_idx = donor_tasks.size();
    PeId best_core = -1;
    for (std::size_t t = 0; t < donor_tasks.size(); ++t) {
      const double c = cost(donor_tasks[t]);
      if (c <= 0.0) break;  // sorted: the rest are zero-cost, unmovable gain
      double best_load = 0.0;
      for (const PeId cand : underset) {
        const double cand_load = p.load[static_cast<std::size_t>(cand)];
        if (!refinement_detail::fits(p, c, cand_load)) continue;
        const bool better =
            best_core == -1 ||
            (low ? cand_load < best_load : cand_load <= best_load);
        if (better) {
          best_core = cand;
          best_load = cand_load;
        }
      }
      if (best_core != -1) {
        best_task_idx = t;
        break;  // tasks are sorted descending: this is the biggest movable
      }
    }

    if (best_core == -1) continue;  // donor cannot be relieved; drop it

    // Perform the transfer and update loads, heap and set (lines 13-14).
    const ChareId moved = donor_tasks[best_task_idx];
    donor_tasks.erase(donor_tasks.begin() +
                      static_cast<std::ptrdiff_t>(best_task_idx));
    const double c = cost(moved);
    p.load[static_cast<std::size_t>(donor)] -= c;
    p.load[static_cast<std::size_t>(best_core)] += c;
    result.assignment[static_cast<std::size_t>(moved)] = best_core;
    ++result.migrations;
    --budget;

    // updateHeapAndSet (line 14): reclassify both endpoints.
    if (refinement_detail::is_heavy(p, donor)) {
      overheap.push(
          NaiveHeapEntry{p.load[static_cast<std::size_t>(donor)], donor, low});
    } else if (refinement_detail::is_light(p, donor)) {
      underset.insert(donor);
    }
    if (!refinement_detail::is_light(p, best_core)) underset.erase(best_core);
  }

  refinement_detail::finalize(p, &result);
  return result;
}

}  // namespace cloudlb
