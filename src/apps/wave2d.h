#pragma once

#include <vector>

#include "apps/stencil_base.h"
#include "runtime/job.h"

namespace cloudlb {

/// Configuration for Wave2D, the tightly coupled 5-point stencil the paper
/// uses both as a measured application and as the interfering background
/// job: a second-order wave equation on a 2D membrane.
struct Wave2dConfig {
  StencilLayout layout;
  /// Courant number c·Δt/Δx; must stay below 1/√2 for stability.
  double courant = 0.5;
};

/// One block of the Wave2D membrane. Keeps two time levels and advances
///   u⁺ = 2u − u⁻ + C²·(∇²u)
/// with the global boundary clamped to zero.
class Wave2dChare final : public StencilBlockChare {
 public:
  Wave2dChare(const Wave2dConfig& config, int bx, int by);

  /// Current-time-level values of the owned block, row-major.
  std::vector<double> block_values() const;

 protected:
  void append_edge(Side side, std::vector<double>& out) const override;
  void apply_update(const StencilGhosts& ghosts) override;
  std::size_t state_bytes() const override;

 private:
  double c2_;  ///< Courant number squared
  std::vector<double> u_prev_, u_cur_, scratch_;
};

/// One leapfrog step of block `b`: writes the next time level to `next`
/// (all three row-major, b.points() long), each interior point as
/// (2c − p) + c2·((((W + E) + N) + S) − 4c) with c and p its `cur` and
/// `prev` values, and each global-boundary point as 0. Bit-identical to
/// the per-point reference loop (tests/support/stencil_reference.h).
void wave2d_step(const StencilBlock& b, double c2,
                 const std::vector<double>& prev,
                 const std::vector<double>& cur, const StencilGhosts& ghosts,
                 std::vector<double>& next);

/// Adds one Wave2dChare per block to `job`, in row-major block order.
void populate_wave2d(RuntimeJob& job, const Wave2dConfig& config);

/// Serial reference: the full grid after `iterations` leapfrog steps.
std::vector<double> wave2d_reference(const Wave2dConfig& config);

}  // namespace cloudlb
