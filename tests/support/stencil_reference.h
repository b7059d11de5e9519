#pragma once

#include <vector>

#include "apps/stencil_base.h"

namespace cloudlb {

/// Retained per-point references for the row-wise stencil kernels: the
/// original loops, which test every point for the global boundary and
/// fetch each neighbour through a lookup that picks a ghost or an own
/// point. jacobi2d_sweep and wave2d_step must match them bit for bit,
/// residual included; kept for the differential test
/// (tests/apps_test.cc); src/ never links them.
double jacobi2d_reference_sweep(const StencilBlock& b,
                                const std::vector<double>& u,
                                const StencilGhosts& ghosts,
                                std::vector<double>& out);

void wave2d_reference_step(const StencilBlock& b, double c2,
                           const std::vector<double>& prev,
                           const std::vector<double>& cur,
                           const StencilGhosts& ghosts,
                           std::vector<double>& next);

}  // namespace cloudlb
