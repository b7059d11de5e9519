#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/job.h"

namespace cloudlb {

/// Names of the bundled applications: "jacobi2d", "wave2d", "mol3d".
std::vector<std::string> app_names();

/// High-level knob set used by the scenario runner and the benches to
/// instantiate any of the three applications with evaluation-scale
/// defaults (sized so the 4–32-core sweeps of the paper's Figure 2 run in
/// seconds of virtual time).
struct AppSpec {
  std::string name = "jacobi2d";
  /// 0 keeps the per-app default iteration count.
  int iterations = 0;
  /// Multiplies the app's per-unit compute cost (problem "heaviness").
  double work_scale = 1.0;
  /// Seed for apps with stochastic setup (Mol3D's particles).
  std::uint64_t seed = 7;

  /// Overrides the stencil block grid (chare count = x·y); 0 keeps the
  /// app default (32×16 = 512 chares). Ignored by Mol3D, whose chare
  /// count is its cell grid.
  int blocks_x = 0;
  int blocks_y = 0;
};

/// Adds the chares of the requested application to `job`.
/// Throws CheckFailure for unknown names.
void populate_app(RuntimeJob& job, const AppSpec& spec);

/// Number of chares populate_app adds for `spec`: the stencil block grid
/// (32×16 = 512 by default) or Mol3D's cell grid (128). A job needs at
/// least one chare per core. Throws CheckFailure for unknown names.
[[nodiscard]] int app_chares(const AppSpec& spec);

}  // namespace cloudlb
