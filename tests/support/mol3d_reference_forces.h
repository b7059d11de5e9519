#pragma once

#include "apps/mol3d.h"

namespace cloudlb {

/// Retained scalar reference for mol3d_forces: the original pair loop
/// (own pairs i < j, then each ghost against every particle, branching on
/// the cutoff and on the minimum image). mol3d_forces must match it bit
/// for bit; kept for the differential test (tests/apps_test.cc) and the
/// kernel micro-benchmark (bench/micro_benchmarks.cc); src/ never links it.
void mol3d_reference_forces(std::span<const Particle> particles,
                            const Mol3dGhosts& ghosts,
                            const Mol3dConfig& config, Mol3dForces& out);

}  // namespace cloudlb
