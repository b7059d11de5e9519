#pragma once

// Setup shared by the indexed production engine (refinement.cc) and the
// retained naive reference (tests/support/refinement_naive.cc). Both must
// compute loads, T_avg, ε and the Eq. 3 feasibility bound with the exact
// same floating-point expressions — otherwise the differential harness
// would be chasing rounding ghosts instead of logic bugs.

#include <vector>

#include "lb/refinement.h"

namespace cloudlb::refinement_detail {

struct Problem {
  std::size_t num_pes = 0;
  std::vector<double> load;                 ///< per-PE O_p + Σ task cost
  std::vector<std::vector<ChareId>> tasks;  ///< per-PE, in donation order
  double t_avg = 0.0;
  double epsilon = 0.0;  ///< epsilon_fraction · T_avg
  double limit = 0.0;    ///< T_avg + ε, the Eq. 3 receiver ceiling
};

/// Validates (stats, external_load, options) and builds the shared problem
/// state. Task lists are sorted by descending cost; cost ties resolve by
/// chare id per `options.tie_break`.
Problem build_problem(const LbStats& stats,
                      const std::vector<double>& external_load,
                      const RefinementOptions& options);

inline bool is_heavy(const Problem& p, PeId pe) {
  return p.load[static_cast<std::size_t>(pe)] - p.t_avg > p.epsilon;
}
inline bool is_light(const Problem& p, PeId pe) {
  return p.t_avg - p.load[static_cast<std::size_t>(pe)] > p.epsilon;
}

/// A task of cost `c` fits on a receiver currently at `receiver_load`
/// without pushing it past T_avg + ε. Monotone in `receiver_load` even
/// under floating point, so feasibility for the least-loaded receiver
/// decides feasibility for the whole underloaded set.
inline bool fits(const Problem& p, double c, double receiver_load) {
  return c <= p.limit - receiver_load;
}

/// Fills `fully_balanced` and `max_load` from the final load vector.
void finalize(const Problem& p, RefinementResult* result);

/// Debug validator (validation_enabled() gates the engine's automatic
/// call): audits a finished refinement pass against the problem it was
/// built from. Checks Eq. 1 conservation — Σ load must still equal
/// P · T_avg within FP tolerance, since refinement only *moves* load —
/// plus assignment shape (dense, every PE in range) and agreement between
/// the incrementally-maintained load vector and a recomputation from the
/// final assignment. Throws CheckFailure on violation.
void validate_refinement(const LbStats& stats,
                         const std::vector<double>& external_load,
                         const Problem& p, const RefinementResult& result);

}  // namespace cloudlb::refinement_detail
