#pragma once

#include <vector>

#include "apps/stencil_base.h"
#include "runtime/job.h"

namespace cloudlb {

/// Configuration for the Jacobi2D benchmark (a canonical 5-point stencil
/// that iteratively averages a 2D grid; one of the paper's three codes).
struct Jacobi2dConfig {
  StencilLayout layout;
};

/// One block of the Jacobi2D grid. Interior points relax to the average of
/// their four neighbours each iteration; the global boundary is held fixed
/// (Dirichlet).
class Jacobi2dChare final : public StencilBlockChare {
 public:
  Jacobi2dChare(const Jacobi2dConfig& config, int bx, int by);

  /// Owned block values, row-major over [y0,y0+ny) × [x0,x0+nx)
  /// (for validation against the serial reference).
  std::vector<double> block_values() const;

  /// L1 change of the owned block in the most recent sweep.
  double local_residual() const override { return residual_; }

 protected:
  void append_edge(Side side, std::vector<double>& out) const override;
  void apply_update(const StencilGhosts& ghosts) override;

 private:
  double residual_ = 0.0;
  std::vector<double> u_, scratch_;
};

/// One Jacobi sweep of block `b`: writes u's relaxed values to `out`
/// (both row-major, b.points() long), each interior point as
/// 0.25·(((W + E) + N) + S) and each global-boundary point unchanged.
/// Returns the L1 change Σ|out − u| over the interior points, summed in
/// row-major order. Bit-identical to the per-point reference loop
/// (tests/support/stencil_reference.h).
double jacobi2d_sweep(const StencilBlock& b, const std::vector<double>& u,
                      const StencilGhosts& ghosts, std::vector<double>& out);

/// Adds one Jacobi2dChare per block to `job`, in row-major block order.
void populate_jacobi2d(RuntimeJob& job, const Jacobi2dConfig& config);

/// Serial reference: the full grid after `iterations` Jacobi sweeps from
/// the shared initial condition. Row-major, grid_y rows of grid_x values.
std::vector<double> jacobi2d_reference(const Jacobi2dConfig& config);

}  // namespace cloudlb
