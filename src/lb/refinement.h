#pragma once

#include <vector>

#include "lb/framework.h"

namespace cloudlb {

/// Deterministic tie-break policy for the refinement engine. Ties happen in
/// three places — equal donor loads in the max-heap, equal receiver loads in
/// the underloaded index, equal task costs inside a donor — and the policy
/// resolves all three the same way so a run is reproducible bit-for-bit.
enum class RefinementTieBreak {
  kLowestId,   ///< prefer the smaller PE / chare id (historical behaviour)
  kHighestId,  ///< prefer the larger id (useful to shake out order bugs)
};

/// Tuning for one `refine_assignment` invocation.
struct RefinementOptions {
  /// ε in the paper's Eq. 3 as a fraction of T_avg: a PE is over/underloaded
  /// when it deviates from the average by more than `epsilon_fraction·T_avg`.
  double epsilon_fraction = 0.05;

  /// Hard cap on migrations per invocation; negative means unlimited. The
  /// engine performs exactly the first `max_migrations` moves of the
  /// uncapped schedule, so capped runs are prefixes of uncapped ones.
  int max_migrations = -1;

  /// Tie-break policy (see RefinementTieBreak).
  RefinementTieBreak tie_break = RefinementTieBreak::kLowestId;
};

/// Maps strategy-level LbOptions onto engine options.
inline RefinementOptions make_refinement_options(const LbOptions& base) {
  RefinementOptions opts;
  opts.epsilon_fraction = base.epsilon_fraction;
  opts.max_migrations = base.max_migrations;
  return opts;
}

/// Result of one refinement pass.
struct RefinementResult {
  std::vector<PeId> assignment;  ///< new chare -> PE mapping
  int migrations = 0;            ///< chares whose PE changed
  bool fully_balanced = false;   ///< every PE ended within ε of T_avg
  double max_load = 0.0;         ///< final max per-PE load (app + external)
};

/// The paper's Algorithm 1 ("Refinement Load Balancing for VM
/// Interference"), parameterized by the per-PE *external* (non-migratable)
/// load O_p so it can serve both the interference-aware scheme (O_p from
/// the background-load estimator, Eq. 2) and the interference-blind classic
/// RefineLB baseline (O_p ≡ 0).
///
/// Steps, following the paper's pseudocode:
///  1. T_avg = Σ_p (Σ_i t_p_i + O_p) / P                       (Eq. 1)
///  2. Cores with load − T_avg > ε go into a max-heap (`overheap`);
///     cores with T_avg − load > ε into the underloaded index.
///  3. While the heap is non-empty: pop the most overloaded donor, and move
///     its largest task that fits onto the least-loaded underloaded core
///     *without overloading it* (Eq. 3); update both loads and re-insert.
///  4. A donor none of whose tasks can move (all too big, or no receivers
///     left) is dropped from the heap — the run is then not fully
///     balanced, which the caller can observe via `fully_balanced`.
///
/// This is the scalable engine: the underloaded set lives in an ordered
/// index keyed by (load, PE id), so the "least-loaded receiver that can
/// absorb cost c without exceeding T_avg + ε" query is O(log P), and each
/// donor's descending-sorted task list is binary-searched for the largest
/// feasible task instead of being rescanned against the whole underset.
/// Total cost is O((T + M)·log P) for T tasks and M migrations (plus the
/// initial O(T log T) sort). See docs/refinement-engine.md.
///
/// Degenerate inputs are handled without UB: zero PEs returns a no-op
/// result immediately, and an all-zero total load (T_avg == 0, which would
/// collapse ε to 0) early-outs as already balanced.
RefinementResult refine_assignment(const LbStats& stats,
                                   const std::vector<double>& external_load,
                                   const RefinementOptions& options);

/// Convenience overload with default cap and tie-break.
RefinementResult refine_assignment(const LbStats& stats,
                                   const std::vector<double>& external_load,
                                   double epsilon_fraction);

}  // namespace cloudlb
