#include "support/stencil_reference.h"

#include <cmath>
#include <cstddef>

namespace cloudlb {

namespace {

/// Value at global point (gx, gy): an own point of `u`, or the ghost of
/// the side it lies beyond.
double value_at(const StencilBlock& b, const std::vector<double>& u,
                const StencilGhosts& ghosts, int gx, int gy) {
  if (gx < b.x0) return ghosts[kWest][static_cast<std::size_t>(gy - b.y0)];
  if (gx >= b.x0 + b.nx)
    return ghosts[kEast][static_cast<std::size_t>(gy - b.y0)];
  if (gy < b.y0) return ghosts[kNorth][static_cast<std::size_t>(gx - b.x0)];
  if (gy >= b.y0 + b.ny)
    return ghosts[kSouth][static_cast<std::size_t>(gx - b.x0)];
  return u[static_cast<std::size_t>(gy - b.y0) *
               static_cast<std::size_t>(b.nx) +
           static_cast<std::size_t>(gx - b.x0)];
}

bool on_boundary(const StencilBlock& b, int gx, int gy) {
  return gx == 0 || gx == b.grid_x - 1 || gy == 0 || gy == b.grid_y - 1;
}

}  // namespace

double jacobi2d_reference_sweep(const StencilBlock& b,
                                const std::vector<double>& u,
                                const StencilGhosts& ghosts,
                                std::vector<double>& out) {
  out.resize(b.points());
  auto value = [&](int gx, int gy) {
    return value_at(b, u, ghosts, gx, gy);
  };
  double residual = 0.0;
  for (int gy = b.y0; gy < b.y0 + b.ny; ++gy) {
    for (int gx = b.x0; gx < b.x0 + b.nx; ++gx) {
      const std::size_t idx =
          static_cast<std::size_t>(gy - b.y0) * static_cast<std::size_t>(b.nx) +
          static_cast<std::size_t>(gx - b.x0);
      if (on_boundary(b, gx, gy)) {
        out[idx] = u[idx];  // Dirichlet boundary: held fixed
      } else {
        out[idx] = 0.25 * (value(gx - 1, gy) + value(gx + 1, gy) +
                           value(gx, gy - 1) + value(gx, gy + 1));
        residual += std::abs(out[idx] - u[idx]);
      }
    }
  }
  return residual;
}

void wave2d_reference_step(const StencilBlock& b, double c2,
                           const std::vector<double>& prev,
                           const std::vector<double>& cur,
                           const StencilGhosts& ghosts,
                           std::vector<double>& next) {
  next.resize(b.points());
  auto value = [&](int gx, int gy) {
    return value_at(b, cur, ghosts, gx, gy);
  };
  for (int gy = b.y0; gy < b.y0 + b.ny; ++gy) {
    for (int gx = b.x0; gx < b.x0 + b.nx; ++gx) {
      const std::size_t i =
          static_cast<std::size_t>(gy - b.y0) * static_cast<std::size_t>(b.nx) +
          static_cast<std::size_t>(gx - b.x0);
      if (on_boundary(b, gx, gy)) {
        next[i] = 0.0;  // clamped membrane edge
      } else {
        const double lap = value(gx - 1, gy) + value(gx + 1, gy) +
                           value(gx, gy - 1) + value(gx, gy + 1) -
                           4.0 * cur[i];
        next[i] = 2.0 * cur[i] - prev[i] + c2 * lap;
      }
    }
  }
}

}  // namespace cloudlb
