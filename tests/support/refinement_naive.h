#pragma once

#include <vector>

#include "lb/refinement.h"

namespace cloudlb {

/// Retained naive reference implementation of Algorithm 1 — the original
/// O(donors × tasks × |underset|) nested-scan kernel. Semantically (and,
/// by construction, bit-for-bit) identical to the indexed engine; kept for
/// the differential-testing harness (tests/refinement_diff_test.cc) and
/// the speedup micro-benchmarks (bench/micro_refinement_sweep.cc,
/// bench/micro_benchmarks.cc); src/ never links it.
RefinementResult refine_assignment_naive(
    const LbStats& stats, const std::vector<double>& external_load,
    const RefinementOptions& options);

}  // namespace cloudlb
