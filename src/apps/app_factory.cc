#include "apps/app_factory.h"

#include "apps/jacobi2d.h"
#include "apps/mol3d.h"
#include "apps/wave2d.h"
#include "util/check.h"

namespace cloudlb {

std::vector<std::string> app_names() {
  return {"jacobi2d", "wave2d", "mol3d"};
}

namespace {

// The block layout of a stencil app, with the spec's overrides applied.
StencilLayout stencil_layout(const AppSpec& spec) {
  StencilLayout layout;
  if (spec.name == "wave2d") {
    // Wave2D's leapfrog update touches two time levels — a heavier
    // per-point cost and a non-square default domain distinguish it from
    // Jacobi2D in the evaluation sweeps.
    layout.grid_x = 320;
    layout.grid_y = 160;
    layout.sec_per_point = 7e-6;
  }
  if (spec.iterations > 0) layout.iterations = spec.iterations;
  layout.sec_per_point *= spec.work_scale;
  if (spec.blocks_x > 0) layout.blocks_x = spec.blocks_x;
  if (spec.blocks_y > 0) layout.blocks_y = spec.blocks_y;
  return layout;
}

Mol3dConfig mol3d_config(const AppSpec& spec) {
  Mol3dConfig config;
  if (spec.iterations > 0) config.iterations = spec.iterations;
  config.sec_per_pair *= spec.work_scale;
  config.seed = spec.seed;
  return config;
}

}  // namespace

void populate_app(RuntimeJob& job, const AppSpec& spec) {
  CLB_CHECK(spec.work_scale > 0.0);
  if (spec.name == "jacobi2d") {
    Jacobi2dConfig config;
    config.layout = stencil_layout(spec);
    populate_jacobi2d(job, config);
  } else if (spec.name == "wave2d") {
    Wave2dConfig config;
    config.layout = stencil_layout(spec);
    populate_wave2d(job, config);
  } else {
    CLB_CHECK_MSG(spec.name == "mol3d", "unknown application: " << spec.name);
    populate_mol3d(job, mol3d_config(spec));
  }
}

int app_chares(const AppSpec& spec) {
  if (spec.name == "mol3d") return mol3d_config(spec).num_cells();
  CLB_CHECK_MSG(spec.name == "jacobi2d" || spec.name == "wave2d",
                "unknown application: " << spec.name);
  return stencil_layout(spec).num_blocks();
}

}  // namespace cloudlb
