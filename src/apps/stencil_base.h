#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "runtime/chare.h"
#include "util/check.h"

namespace cloudlb {

/// Message tags used by the bundled applications.
enum StencilTag : int {
  kTagGhost = 1,    ///< boundary values from a neighbour
  kTagCompute = 2,  ///< self-message triggering the iteration's update
};

/// Where a block sits in the global grid: it owns columns [x0, x0+nx) and
/// rows [y0, y0+ny) of a grid_x × grid_y grid, stored row-major.
struct StencilBlock {
  int grid_x = 0;
  int grid_y = 0;
  int x0 = 0;
  int y0 = 0;
  int nx = 0;
  int ny = 0;

  std::size_t points() const {
    return static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny);
  }
};

/// Geometry and cost model shared by the 2D stencil applications.
///
/// The global grid_x × grid_y grid is split into blocks_x × blocks_y
/// blocks, one chare each (chare id = by·blocks_x + bx, row-major). The
/// simulated CPU cost of an iteration's update is `sec_per_point` per
/// owned point — uniform blocks make the application internally balanced,
/// so (as in the paper's Wave2D/Jacobi2D) any imbalance comes from outside.
struct StencilLayout {
  int grid_x = 256;
  int grid_y = 256;
  int blocks_x = 32;
  int blocks_y = 16;
  int iterations = 120;
  double sec_per_point = 5e-6;        ///< virtual CPU per point per update
  double ghost_sec_per_value = 2e-8;  ///< virtual CPU to absorb one ghost value

  /// Convergence checking: every `residual_period` iterations the chares
  /// contribute their local residual to a global sum reduction and stop
  /// early once it drops below `residual_tolerance`. 0 disables the check
  /// (fixed iteration count), which is what the timing experiments use.
  int residual_period = 0;
  double residual_tolerance = 0.0;

  int num_blocks() const { return blocks_x * blocks_y; }
  void validate() const;

  /// Geometry of block (bx, by): the blocks split each axis as evenly as
  /// integer division allows.
  StencilBlock block(int bx, int by) const;
};

/// Sides index ghosts and neighbours: 0=west 1=east 2=north 3=south.
enum StencilSide { kWest = 0, kEast = 1, kNorth = 2, kSouth = 3 };

/// One block's neighbour edges, indexed by StencilSide: west/east hold
/// one value per owned row, north/south one per owned column, and a side
/// on the global boundary is empty.
using StencilGhosts = std::array<std::vector<double>, 4>;

/// The row-wise sweep shared by the stencil kernels. Visits every owned
/// point once, in row-major order: `fixed(k)` for points on the global
/// boundary, `interior(k, w, e, n, s)` for the rest, with k the point's
/// row-major index and w, e, n, s its four neighbours' values in `u` or
/// in the ghosts. Boundary rows and columns, and the ghost columns, are
/// peeled out of the inner loop, which reads the rows above and below
/// through plain pointers (the north or south ghost at the block edge).
template <typename Interior, typename Fixed>
void stencil_sweep(const StencilBlock& b, const double* u,
                   const StencilGhosts& ghosts, Interior&& interior,
                   Fixed&& fixed) {
  const int w = b.nx;
  const auto edge_ok = [&](StencilSide side, bool inner, int n) {
    return !inner ||
           ghosts[side].size() == static_cast<std::size_t>(n);
  };
  CLB_CHECK_MSG(edge_ok(kWest, b.x0 > 0, b.ny) &&
                    edge_ok(kEast, b.x0 + w < b.grid_x, b.ny) &&
                    edge_ok(kNorth, b.y0 > 0, w) &&
                    edge_ok(kSouth, b.y0 + b.ny < b.grid_y, w),
                "stencil ghost edge of the wrong length");
  // Columns [lo, hi) of an inner row are interior points.
  const int lo = b.x0 == 0 ? 1 : 0;
  const int hi = b.x0 + w == b.grid_x ? w - 1 : w;
  const double* west = ghosts[kWest].data();
  const double* east = ghosts[kEast].data();
  for (int j = 0; j < b.ny; ++j) {
    const auto row = static_cast<std::size_t>(j) * static_cast<std::size_t>(w);
    const int gy = b.y0 + j;
    if (gy == 0 || gy == b.grid_y - 1) {
      for (int i = 0; i < w; ++i) fixed(row + static_cast<std::size_t>(i));
      continue;
    }
    const double* c = u + row;
    const double* n = j > 0 ? c - w : ghosts[kNorth].data();
    const double* s = j < b.ny - 1 ? c + w : ghosts[kSouth].data();
    if (lo == 1) fixed(row);
    int i = lo;
    if (i == 0 && hi > 0) {  // west ghost column
      interior(row, west[j], w > 1 ? c[1] : east[j], n[0], s[0]);
      i = 1;
    }
    const int inner_end = hi < w - 1 ? hi : w - 1;
    for (; i < inner_end; ++i) {
      const auto ii = static_cast<std::size_t>(i);
      interior(row + ii, c[ii - 1], c[ii + 1], n[ii], s[ii]);
    }
    if (i < hi) {  // east ghost column: i == w - 1 > 0
      const auto ii = static_cast<std::size_t>(i);
      interior(row + ii, c[ii - 1], east[j], n[ii], s[ii]);
    }
    if (hi == w - 1) fixed(row + static_cast<std::size_t>(w - 1));
  }
}

/// Base chare for 2D block-decomposed iterative stencil codes.
///
/// Handles the whole message choreography — ghost sends, out-of-order
/// ghost buffering (a neighbour may run one iteration ahead), the compute
/// self-message, iteration accounting, AtSync every job().lb_period()
/// iterations and finish() — leaving derived classes only the numerics:
/// `append_edge()` (what to send) and `apply_update()` (how to relax).
class StencilBlockChare : public Chare {
 public:
  using Side = StencilSide;

  StencilBlockChare(const StencilLayout& layout, int bx, int by);

  void on_start() override;
  SimTime cost(const Message& msg) const override;
  void execute(Message& msg) override;
  void on_resume_sync() override;
  void on_reduction_result(double global_residual) override;
  std::size_t footprint_bytes() const override;

  // Geometry accessors (owned region, halo excluded).
  int x0() const { return block_.x0; }
  int y0() const { return block_.y0; }
  int nx() const { return block_.nx; }
  int ny() const { return block_.ny; }
  int iteration() const { return iter_; }
  const StencilLayout& layout() const { return layout_; }
  const StencilBlock& block() const { return block_; }

 protected:
  /// Appends the values along `side` of the owned region to `out`:
  /// ny() values (one per row, top to bottom) for west/east, nx() (left
  /// to right) for north/south.
  virtual void append_edge(Side side, std::vector<double>& out) const = 0;

  /// append_edge for a block whose current values are `values`
  /// (row-major, nx() × ny()).
  void append_edge_of(const std::vector<double>& values, Side side,
                      std::vector<double>& out) const;

  /// Applies one stencil update; `ghosts[side]` is the neighbour's edge
  /// (empty when the block touches the global boundary on that side).
  virtual void apply_update(const StencilGhosts& ghosts) = 0;

  /// Bytes of numerical state, used for migration cost. Defaults to one
  /// grid of doubles; Wave2D overrides (two time levels).
  virtual std::size_t state_bytes() const;

  /// This block's contribution to the global residual reduction (only
  /// consulted when layout().residual_period > 0).
  virtual double local_residual() const { return 0.0; }

 private:
  /// Ghosts of one iteration: the edges, which sides have arrived, and
  /// how many.
  struct GhostSlot {
    StencilGhosts edges;
    std::array<bool, 4> have{};
    int count = 0;
  };

  void send_ghosts();
  void maybe_trigger_compute();
  void proceed_to_next_iteration();
  GhostSlot& ghost_slot(int iter) {
    return ghosts_[static_cast<std::size_t>(iter & 1)];
  }

  StencilLayout layout_;
  StencilBlock block_;
  std::array<ChareId, 4> neighbor_;  ///< -1 where the global boundary is
  int expected_ghosts_ = 0;
  int iter_ = 0;
  bool compute_pending_ = false;
  bool awaiting_reduction_ = false;
  /// Ghosts of iterations iter_ and iter_ + 1 (a neighbour runs at most
  /// one iteration ahead), in slot iter & 1. The edge buffers come from
  /// the PE's recycled payloads and go back after the update, so a warm
  /// block receives ghosts without allocating.
  std::array<GhostSlot, 2> ghosts_;
};

/// Deterministic initial condition used by the stencil apps and their
/// serial references: a smooth mode plus an off-centre Gaussian bump.
double stencil_initial_value(int i, int j, int grid_x, int grid_y);

}  // namespace cloudlb
