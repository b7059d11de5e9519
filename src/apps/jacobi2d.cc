#include "apps/jacobi2d.h"

#include <cmath>

#include "util/check.h"

namespace cloudlb {

Jacobi2dChare::Jacobi2dChare(const Jacobi2dConfig& config, int bx, int by)
    : StencilBlockChare(config.layout, bx, by) {
  u_.reserve(block().points());
  for (int gy = y0(); gy < y0() + ny(); ++gy)
    for (int gx = x0(); gx < x0() + nx(); ++gx)
      u_.push_back(stencil_initial_value(gx, gy, layout().grid_x,
                                         layout().grid_y));
  scratch_ = u_;
}

std::vector<double> Jacobi2dChare::block_values() const { return u_; }

void Jacobi2dChare::append_edge(Side side, std::vector<double>& out) const {
  append_edge_of(u_, side, out);
}

void Jacobi2dChare::apply_update(const StencilGhosts& ghosts) {
  residual_ = jacobi2d_sweep(block(), u_, ghosts, scratch_);
  u_.swap(scratch_);
}

double jacobi2d_sweep(const StencilBlock& b, const std::vector<double>& u,
                      const StencilGhosts& ghosts, std::vector<double>& out) {
  CLB_CHECK(u.size() == b.points());
  out.resize(b.points());
  const double* in = u.data();
  double* next = out.data();
  double residual = 0.0;
  stencil_sweep(
      b, in, ghosts,
      [&](std::size_t k, double w, double e, double n, double s) {
        next[k] = 0.25 * (w + e + n + s);
        residual += std::abs(next[k] - in[k]);
      },
      [&](std::size_t k) { next[k] = in[k]; });  // Dirichlet: held fixed
  return residual;
}

void populate_jacobi2d(RuntimeJob& job, const Jacobi2dConfig& config) {
  config.layout.validate();
  for (int by = 0; by < config.layout.blocks_y; ++by)
    for (int bx = 0; bx < config.layout.blocks_x; ++bx) {
      // Ghost exchange routes by the computed block id `by*blocks_x + bx`
      // (stencil_base.cc), which only matches what add_chare hands back
      // when the job starts empty; a pre-seeded job would cross-deliver
      // every ghost message, so fail loudly instead.
      const ChareId id =
          job.add_chare(std::make_unique<Jacobi2dChare>(config, bx, by));
      CLB_CHECK_MSG(
          id == static_cast<ChareId>(by * config.layout.blocks_x + bx),
          "populate_jacobi2d requires an empty job: block (" << bx << ','
              << by << ") was assigned chare id " << id);
    }
}

std::vector<double> jacobi2d_reference(const Jacobi2dConfig& config) {
  const StencilLayout& l = config.layout;
  l.validate();
  const auto w = static_cast<std::size_t>(l.grid_x);
  std::vector<double> u(w * static_cast<std::size_t>(l.grid_y));
  for (int gy = 0; gy < l.grid_y; ++gy)
    for (int gx = 0; gx < l.grid_x; ++gx)
      u[static_cast<std::size_t>(gy) * w + static_cast<std::size_t>(gx)] =
          stencil_initial_value(gx, gy, l.grid_x, l.grid_y);

  std::vector<double> next = u;
  for (int it = 0; it < l.iterations; ++it) {
    for (int gy = 1; gy < l.grid_y - 1; ++gy) {
      for (int gx = 1; gx < l.grid_x - 1; ++gx) {
        const std::size_t i =
            static_cast<std::size_t>(gy) * w + static_cast<std::size_t>(gx);
        next[i] = 0.25 * (u[i - 1] + u[i + 1] + u[i - w] + u[i + w]);
      }
    }
    u.swap(next);
  }
  return u;
}

}  // namespace cloudlb
