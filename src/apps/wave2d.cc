#include "apps/wave2d.h"

#include "util/check.h"

namespace cloudlb {

Wave2dChare::Wave2dChare(const Wave2dConfig& config, int bx, int by)
    : StencilBlockChare(config.layout, bx, by),
      c2_{config.courant * config.courant} {
  CLB_CHECK(config.courant > 0.0 && config.courant < 0.7071);
  u_cur_.reserve(block().points());
  for (int gy = y0(); gy < y0() + ny(); ++gy)
    for (int gx = x0(); gx < x0() + nx(); ++gx)
      u_cur_.push_back(stencil_initial_value(gx, gy, layout().grid_x,
                                             layout().grid_y));
  u_prev_ = u_cur_;  // zero initial velocity
  scratch_ = u_cur_;
}

std::size_t Wave2dChare::state_bytes() const {
  return 2 * block().points() * sizeof(double);
}

std::vector<double> Wave2dChare::block_values() const { return u_cur_; }

void Wave2dChare::append_edge(Side side, std::vector<double>& out) const {
  append_edge_of(u_cur_, side, out);
}

void Wave2dChare::apply_update(const StencilGhosts& ghosts) {
  wave2d_step(block(), c2_, u_prev_, u_cur_, ghosts, scratch_);
  u_prev_.swap(u_cur_);
  u_cur_.swap(scratch_);
}

void wave2d_step(const StencilBlock& b, double c2,
                 const std::vector<double>& prev,
                 const std::vector<double>& cur, const StencilGhosts& ghosts,
                 std::vector<double>& next) {
  CLB_CHECK(prev.size() == b.points() && cur.size() == b.points());
  next.resize(b.points());
  const double* p = prev.data();
  const double* u = cur.data();
  double* out = next.data();
  stencil_sweep(
      b, u, ghosts,
      [&](std::size_t k, double w, double e, double n, double s) {
        const double lap = w + e + n + s - 4.0 * u[k];
        out[k] = 2.0 * u[k] - p[k] + c2 * lap;
      },
      [&](std::size_t k) { out[k] = 0.0; });  // clamped membrane edge
}

void populate_wave2d(RuntimeJob& job, const Wave2dConfig& config) {
  config.layout.validate();
  for (int by = 0; by < config.layout.blocks_y; ++by)
    for (int bx = 0; bx < config.layout.blocks_x; ++bx) {
      // Ghost exchange routes by `by*blocks_x + bx` (stencil_base.cc); the
      // assigned ids only line up when the job starts empty.
      const ChareId id =
          job.add_chare(std::make_unique<Wave2dChare>(config, bx, by));
      CLB_CHECK_MSG(
          id == static_cast<ChareId>(by * config.layout.blocks_x + bx),
          "populate_wave2d requires an empty job: block (" << bx << ',' << by
              << ") was assigned chare id " << id);
    }
}

std::vector<double> wave2d_reference(const Wave2dConfig& config) {
  const StencilLayout& l = config.layout;
  l.validate();
  const double c2 = config.courant * config.courant;
  const auto w = static_cast<std::size_t>(l.grid_x);
  std::vector<double> cur(w * static_cast<std::size_t>(l.grid_y));
  for (int gy = 0; gy < l.grid_y; ++gy)
    for (int gx = 0; gx < l.grid_x; ++gx)
      cur[static_cast<std::size_t>(gy) * w + static_cast<std::size_t>(gx)] =
          stencil_initial_value(gx, gy, l.grid_x, l.grid_y);
  std::vector<double> prev = cur;
  std::vector<double> next(cur.size(), 0.0);

  for (int it = 0; it < l.iterations; ++it) {
    for (int gy = 0; gy < l.grid_y; ++gy) {
      for (int gx = 0; gx < l.grid_x; ++gx) {
        const std::size_t i =
            static_cast<std::size_t>(gy) * w + static_cast<std::size_t>(gx);
        if (gx == 0 || gx == l.grid_x - 1 || gy == 0 || gy == l.grid_y - 1) {
          next[i] = 0.0;  // clamped edge, re-imposed every step
        } else {
          const double lap =
              cur[i - 1] + cur[i + 1] + cur[i - w] + cur[i + w] - 4.0 * cur[i];
          next[i] = 2.0 * cur[i] - prev[i] + c2 * lap;
        }
      }
    }
    prev.swap(cur);
    cur.swap(next);
  }
  return cur;
}

}  // namespace cloudlb
