#include "support/mol3d_reference_forces.h"

#include <algorithm>

namespace cloudlb {

namespace {

double min_image(double d, double box) {
  if (d > 0.5 * box) return d - box;
  if (d < -0.5 * box) return d + box;
  return d;
}

}  // namespace

void mol3d_reference_forces(std::span<const Particle> particles,
                            const Mol3dGhosts& ghosts,
                            const Mol3dConfig& config, Mol3dForces& out) {
  const double box[3] = {static_cast<double>(config.cells_x),
                         static_cast<double>(config.cells_y),
                         static_cast<double>(config.cells_z)};
  const double rc2 = config.cutoff * config.cutoff;
  const double sigma2 = config.sigma * config.sigma;
  const double r2_min = 0.25 * sigma2;

  const std::size_t n = particles.size();
  std::vector<double>& fx = out.fx;
  std::vector<double>& fy = out.fy;
  std::vector<double>& fz = out.fz;
  fx.assign(n, 0.0);
  fy.assign(n, 0.0);
  fz.assign(n, 0.0);

  auto accumulate = [&](std::size_t i, double dx, double dy, double dz,
                        double* fxj, double* fyj, double* fzj) {
    double r2 = dx * dx + dy * dy + dz * dz;
    if (r2 >= rc2) return;
    r2 = std::max(r2, r2_min);
    const double s2 = sigma2 / r2;
    const double s6 = s2 * s2 * s2;
    const double f_over_r = 24.0 * config.epsilon * (2.0 * s6 * s6 - s6) / r2;
    fx[i] += f_over_r * dx;
    fy[i] += f_over_r * dy;
    fz[i] += f_over_r * dz;
    if (fxj != nullptr) {
      *fxj -= f_over_r * dx;
      *fyj -= f_over_r * dy;
      *fzj -= f_over_r * dz;
    }
  };

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      const double dx = min_image(particles[i].x - particles[j].x, box[0]);
      const double dy = min_image(particles[i].y - particles[j].y, box[1]);
      const double dz = min_image(particles[i].z - particles[j].z, box[2]);
      accumulate(i, dx, dy, dz, &fx[j], &fy[j], &fz[j]);
    }
  }
  for (const auto& g : ghosts) {
    for (std::size_t k = 0; k + 2 < g.size(); k += 3) {
      for (std::size_t i = 0; i < n; ++i) {
        const double dx = min_image(particles[i].x - g[k], box[0]);
        const double dy = min_image(particles[i].y - g[k + 1], box[1]);
        const double dz = min_image(particles[i].z - g[k + 2], box[2]);
        accumulate(i, dx, dy, dz, nullptr, nullptr, nullptr);
      }
    }
  }
}

}  // namespace cloudlb
