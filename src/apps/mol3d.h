#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/chare.h"
#include "runtime/job.h"
#include "util/offload.h"

namespace cloudlb {

/// A point particle with position and velocity (unit mass).
struct Particle {
  double x = 0, y = 0, z = 0;
  double vx = 0, vy = 0, vz = 0;
};

/// Configuration for Mol3D, the classical molecular dynamics mini-app
/// standing in for the paper's third code: a 3D cell (spatial)
/// decomposition with Lennard-Jones pair forces, periodic boundaries and
/// particle hand-off between cells.
///
/// Unlike the stencils, per-cell load follows the (clustered) particle
/// distribution and drifts as particles move, so Mol3D carries *internal*
/// imbalance on top of any VM interference.
struct Mol3dConfig {
  // Cell grid; cell edge length is 1.0, so the periodic box is
  // cells_x × cells_y × cells_z. Each dimension needs ≥ 3 cells so the six
  // face neighbours are distinct.
  int cells_x = 8;
  int cells_y = 4;
  int cells_z = 4;

  int num_particles = 2048;
  int iterations = 40;
  std::uint64_t seed = 7;

  /// Fraction of particles seeded inside two Gaussian clusters (the rest
  /// are uniform) — the source of internal load imbalance. The default is
  /// mild (NAMD-style decompositions are reasonably even); crank it up to
  /// study heavy internal imbalance.
  double cluster_fraction = 0.25;

  // Physics (kept stable and deterministic; fidelity is not the point).
  double cutoff = 0.8;   ///< pair interaction range, ≤ 1 cell
  double sigma = 0.3;    ///< LJ length scale
  double epsilon = 1e-4; ///< LJ energy scale
  double dt = 0.005;

  // Cost model: virtual CPU per examined pair / per ghost particle copied.
  double sec_per_pair = 1.2e-6;
  double ghost_sec_per_particle = 5e-8;

  int num_cells() const { return cells_x * cells_y * cells_z; }
  void validate() const;
};

/// Message tags of Mol3dChare.
enum Mol3dTag : int {
  kMolGhost = 1,    ///< positions and leavers from a face neighbour
  kMolCompute = 2,  ///< self-message triggering the iteration's forces
};

/// The ghost positions one cell holds for a force computation: for each
/// face (0=x− 1=x+ 2=y− 3=y+ 4=z− 5=z+) a run of xyz triples.
using Mol3dGhosts = std::array<std::span<const double>, 6>;

/// Per-particle force components, index-aligned with the particles.
struct Mol3dForces {
  std::vector<double> fx, fy, fz;
};

/// Lennard-Jones forces on `particles` from each other and from `ghosts`,
/// using minimum-image displacements in the periodic box and
/// config.cutoff, written to fx, fy and fz, particles.size() values each.
/// Every force is bit-identical to the original scalar pair loop
/// (tests/support/mol3d_reference_forces.h): docs/applications.md states
/// the summation order and expressions this relies on. Safe to call from
/// any number of threads at once; its scratch lives on the stack.
void mol3d_forces(std::span<const Particle> particles, const Mol3dGhosts& ghosts,
                  const Mol3dConfig& config, double* fx, double* fy,
                  double* fz);

/// The same, into `out`, resized to particles.size().
void mol3d_forces(std::span<const Particle> particles, const Mol3dGhosts& ghosts,
                  const Mol3dConfig& config, Mol3dForces& out);

using Mol3dForcesFn = void (*)(std::span<const Particle>, const Mol3dGhosts&,
                               const Mol3dConfig&, Mol3dForces&);

/// The widths mol3d_forces chooses from, once per process: one kernel body
/// at two lanes (the x86-64 baseline) and at four (AVX2). `avx2` is null
/// where the host cannot run it; mol3d_forces runs it wherever it is not.
/// Exposed so tests and benchmarks can check and time every width.
struct Mol3dKernels {
  Mol3dForcesFn two_lane;
  Mol3dForcesFn avx2;
};
Mol3dKernels mol3d_kernels();

/// One spatial cell of the Mol3D decomposition. Each iteration it ships
/// its particle positions (plus any particles that left its bounds) to its
/// six face neighbours, waits for theirs, computes LJ forces over
/// own-own and own-ghost pairs within the cutoff, and integrates.
class Mol3dChare final : public Chare {
 public:
  /// Faces: 0=x− 1=x+ 2=y− 3=y+ 4=z− 5=z+ (opposite face = side ^ 1).
  Mol3dChare(const Mol3dConfig& config, int cx, int cy, int cz,
             std::vector<Particle> particles);

  void on_start() override;
  SimTime cost(const Message& msg) const override;
  /// A compute task starts its force computation on a host worker.
  void on_task_start(const Message& msg) override;
  void execute(Message& msg) override;
  void on_resume_sync() override;
  std::size_t footprint_bytes() const override;

  /// The cell's particles, not counting those staged to leave it.
  std::span<const Particle> particles() const {
    return {particles_.data(), staged_[0]};
  }
  int iteration() const { return iter_; }

  /// One-line diagnostic of the message-wait state (for tests/tools).
  std::string debug_state() const;

  /// Pairs the cost model charges for one force computation right now.
  std::int64_t pairs_examined() const;

  /// Doubles of received payload storage the cell holds, capacity
  /// included: the ghosts of at most two iterations while it runs, none
  /// once it has finished (for tests).
  std::size_t held_ghost_values() const;

 private:
  /// What the six face neighbours sent for one iteration. Each received
  /// payload is kept whole, header included; the spans view its parts in
  /// place.
  struct IterSlot {
    std::array<std::vector<double>, 6> payloads;  ///< empty until received
    Mol3dGhosts ghosts;  ///< each face's xyz triples
    std::array<std::span<const double>, 6> leavers;  ///< six values each
    std::array<std::size_t, 6> order{};  ///< faces in arrival order
    int count = 0;                       ///< faces received
  };

  /// The outcome of one force computation, written off the engine thread
  /// and adopted by execute(): the iteration's particles, integrated,
  /// with their leavers staged behind them (as in `staged_`).
  struct Pending {
    std::vector<Particle> cell;
    std::array<std::size_t, 7> staged{};
  };

  void send_phase();
  void maybe_trigger_compute();
  /// Allocates the iteration's particle vector and starts
  /// compute_forces_and_integrate on a host worker.
  void start_compute();
  /// Adopts this iteration's leavers, computes forces and integrates,
  /// into `pending_`. Reads the cell, writes nothing else.
  void compute_forces_and_integrate();
  int side_of_leaver(const Particle& p) const;
  /// The slot of iteration `iter`: a neighbour is at most one iteration
  /// ahead, so iterations i and i + 1 never share one.
  IterSlot& slot(int iter) {
    return slots_[static_cast<std::size_t>(iter & 1)];
  }
  const IterSlot& slot(int iter) const {
    return slots_[static_cast<std::size_t>(iter & 1)];
  }

  Mol3dConfig config_;
  int cx_, cy_, cz_;
  double lo_[3], hi_[3];
  std::array<ChareId, 6> neighbor_;  ///< the cell across each face
  /// The cell's particles, then the ones the last integration found
  /// outside it, grouped by face in index order until the next send phase
  /// hands them over: face f's leavers are [staged_[f], staged_[f + 1]).
  std::vector<Particle> particles_;
  std::array<std::size_t, 7> staged_{};
  int iter_ = 0;
  bool compute_pending_ = false;
  std::array<IterSlot, 2> slots_;
  Pending pending_;
  /// The running force computation. Declared last, so a cell torn down
  /// mid-task joins it before the state it reads is destroyed.
  Offload compute_;
};

/// Generates the deterministic clustered particle set, bins it into cells
/// and adds one Mol3dChare per cell (cell-id order) to `job`.
void populate_mol3d(RuntimeJob& job, const Mol3dConfig& config);

/// The particle set populate_mol3d distributes (exposed for tests).
std::vector<Particle> mol3d_initial_particles(const Mol3dConfig& config);

}  // namespace cloudlb
