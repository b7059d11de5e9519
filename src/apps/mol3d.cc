#include "apps/mol3d.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace cloudlb {

namespace {

/// Periodic wrap into [0, box). A moved particle lies in (−box, 2·box),
/// where one add or subtract gives fmod's result exactly: fmod returns v
/// itself for |v| < box, and v − box is exact on [box, 2·box) by
/// Sterbenz's lemma. v = −box stays on the fmod path, which yields −0.0.
double wrap(double v, double box) {
  if (v >= 0.0) {
    if (v < box) return v;
    if (v < 2.0 * box) return v - box;
  } else if (v > -box) {
    return v + box;
  }
  v = std::fmod(v, box);
  return v < 0 ? v + box : v;
}

/// True when v is a whole number in [0, limit). Message headers travel as
/// doubles; this is what makes their conversion to an index defined.
bool whole_below(double v, double limit) {
  return v >= 0.0 && v < limit && v == std::floor(v);
}

/// Minimum-image displacement on one periodic axis.
double min_image(double d, double box) {
  if (d > 0.5 * box) return d - box;
  if (d < -0.5 * box) return d + box;
  return d;
}

/// Doubles in one register, and the lane masks their comparisons yield
/// (GCC/Clang vector extensions): two lanes for the x86-64 baseline (SSE2),
/// four for AVX2. A 32-byte vector passed or returned by value changes the
/// calling convention outside AVX code, so the helpers below take vectors
/// by reference and the casts are builtins, not calls.
using V2d = double __attribute__((vector_size(16)));
using V2i = std::int64_t __attribute__((vector_size(16)));
using V4d = double __attribute__((vector_size(32)));
using V4i = std::int64_t __attribute__((vector_size(32)));

/// Sets every lane of v to x (no arithmetic, so −0.0 and NaN keep their
/// bits).
template <class V>
[[gnu::always_inline]] inline void splat(V& v, double x) {
  for (std::size_t l = 0; l < sizeof v / sizeof x; ++l) v[l] = x;
}

/// min_image on every lane, equal bit for bit to the scalar branch in each:
/// d − a, where the masks pick a = box, −box or +0.0. Subtracting keeps it
/// exact: d − (+0.0) is d for every d, −0.0 included (an added +0.0 would
/// turn −0.0 into +0.0), and d − (−box) is d + box by definition.
template <class V, class I>
[[gnu::always_inline]] inline void min_image(V& d, const V& box,
                                             const V& half) {
  const I a = ((d > half) & __builtin_bit_cast(I, box)) |
              ((d < -half) & __builtin_bit_cast(I, -box));
  d -= __builtin_bit_cast(V, a);
}

/// Values a computation keeps on its thread's stack, per buffer; above
/// these counts a buffer goes to the heap. The default configuration's
/// cells hold about 16 particles and gather about 100 positions; in 40
/// `cloud-mol3d-tenants` experiments no cell held more than 40 or
/// gathered more than 175. GCC probes every page of a large frame, so the
/// whole frame is resident on each thread that runs a computation: the
/// counts stay near those maxima.
constexpr std::size_t kStackPositions = 256;
constexpr std::size_t kStackParticles = 128;

/// `n` values of T, on the stack up to N and on the heap above it. Scratch
/// is neither per thread nor per chare: a per-thread buffer that grows
/// would make allocation counts depend on which thread ran which cell, and
/// per-chare buffers would each keep their largest computation's capacity.
template <class T, std::size_t N>
class StackBuffer {
 public:
  explicit StackBuffer(std::size_t n) {
    if (n > N) heap_.resize(n);
  }
  T* data() { return heap_.empty() ? stack_ : heap_.data(); }

 private:
  T stack_[N];
  std::vector<T> heap_;
};

/// Row entries one distance pass covers before its hits are summed: a
/// multiple of every lane width, and above the typical row of the default
/// configuration's cells, which then runs in one chunk.
constexpr std::size_t kRowChunk = 128;

/// The force kernel at W = sizeof(V) / sizeof(double) lanes, writing
/// particles.size() values to each of fx, fy and fz. Instantiated once per
/// width, each inside the function that enables its instruction set, so
/// every width runs the same expressions in the same order.
template <class V, class I>
[[gnu::always_inline]] inline void forces_body(
    std::span<const Particle> particles, const Mol3dGhosts& ghosts,
    const Mol3dConfig& config, double* fx, double* fy, double* fz) {
  constexpr std::size_t W = sizeof(V) / sizeof(double);
  static_assert(kRowChunk % W == 0);
  const double box[3] = {static_cast<double>(config.cells_x),
                         static_cast<double>(config.cells_y),
                         static_cast<double>(config.cells_z)};
  const double rc2 = config.cutoff * config.cutoff;
  const double sigma2 = config.sigma * config.sigma;
  // Clamp r² from below to cap the force singularity at overlap.
  const double r2_min = 0.25 * sigma2;

  const std::size_t n = particles.size();
  std::fill_n(fx, n, 0.0);
  std::fill_n(fy, n, 0.0);
  std::fill_n(fz, n, 0.0);

  // Positions: the particles, then every ghost in (side, k) order, then
  // W − 1 padding slots so a W-lane pass may start at any index.
  std::size_t end = n;
  for (const auto& side : ghosts) end += side.size() / 3;
  StackBuffer<double, kStackPositions> xs(end + W - 1), ys(end + W - 1),
      zs(end + W - 1);
  double* const x = xs.data();
  double* const y = ys.data();
  double* const z = zs.data();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = particles[i].x;
    y[i] = particles[i].y;
    z[i] = particles[i].z;
  }
  std::size_t k = n;
  for (const auto& side : ghosts)
    for (std::size_t t = 0; t + 2 < side.size(); t += 3, ++k) {
      x[k] = side[t];
      y[k] = side[t + 1];
      z[k] = side[t + 2];
    }
  for (std::size_t p = end; p < end + W - 1; ++p) x[p] = y[p] = z[p] = 0.0;

  // One chunk of a row: its displacements by offset from the chunk's
  // first index, and its hits in index order (r², f/r and the index). A
  // pass writes each lane at the hit cursor before it knows whether the
  // lane hit, and f/r is evaluated up to W − 1 entries past the last hit.
  double dx_c[kRowChunk], dy_c[kRowChunk], dz_c[kRowChunk];
  double hit_r2[kRowChunk + W - 1], hit_f[kRowChunk + W - 1];
  std::size_t hit_j[kRowChunk];

  V box_x{}, box_y{}, box_z{}, rc2_v{}, r2_min_v{}, sigma2_v{}, eps24_v{};
  splat(box_x, box[0]);
  splat(box_y, box[1]);
  splat(box_z, box[2]);
  splat(rc2_v, rc2);
  splat(r2_min_v, r2_min);
  splat(sigma2_v, sigma2);
  splat(eps24_v, 24.0 * config.epsilon);
  const V half_x = 0.5 * box_x, half_y = 0.5 * box_y, half_z = 0.5 * box_z;

  // Row m pairs particle m with every later particle and every ghost,
  // kRowChunk indices at a time. A W-lane distance pass stores the
  // displacements by offset, writes each lane's r² and index at the hit
  // cursor and advances it by the lane's hit mask; f/r is then evaluated
  // W hits at a time, and the forces summed in index order.
  // Particle m's sum thus takes −c(i, m) for i < m (from earlier rows),
  // then +c(m, j) for j > m, then the ghosts in (side, k) order: the
  // scalar pair loop's order.
  for (std::size_t m = 0; m < n; ++m) {
    V px{}, py{}, pz{};
    splat(px, x[m]);
    splat(py, y[m]);
    splat(pz, z[m]);
    double fxm = fx[m], fym = fy[m], fzm = fz[m];
    for (std::size_t first = m + 1; first < end; first += kRowChunk) {
      const std::size_t last = std::min(first + kRowChunk, end);
      std::size_t hits = 0;
      for (std::size_t j = first; j < last; j += W) {
        V dx{}, dy{}, dz{};
        std::memcpy(&dx, x + j, sizeof dx);
        std::memcpy(&dy, y + j, sizeof dy);
        std::memcpy(&dz, z + j, sizeof dz);
        dx = px - dx;
        dy = py - dy;
        dz = pz - dz;
        min_image<V, I>(dx, box_x, half_x);
        min_image<V, I>(dy, box_y, half_y);
        min_image<V, I>(dz, box_z, half_z);
        const V r2 = dx * dx + dy * dy + dz * dz;
        std::memcpy(dx_c + (j - first), &dx, sizeof dx);
        std::memcpy(dy_c + (j - first), &dy, sizeof dy);
        std::memcpy(dz_c + (j - first), &dz, sizeof dz);
        // !(r2 >= rc2), not r2 < rc2: a NaN distance counts, as it always
        // has.
        const I hit = ~(r2 >= rc2_v);
        for (std::size_t l = 0; l < W; ++l) {
          hit_r2[hits] = r2[l];
          hit_j[hits] = j + l;
          hits += static_cast<std::size_t>(hit[l] & 1);
        }
      }
      // Lanes past `end` read padding, which may count as hits; being the
      // last lanes of the row, they are the last entries, so drop them.
      while (hits > 0 && hit_j[hits - 1] >= end) --hits;
      // The lanes past the last hit get a defined r², and are dropped.
      std::fill_n(hit_r2 + hits, W - 1, 0.0);

      for (std::size_t h = 0; h < hits; h += W) {
        V r2{};
        std::memcpy(&r2, hit_r2 + h, sizeof r2);
        // std::max(r2, r2_min) is (r2 < r2_min) ? r2_min : r2.
        const I low = r2 < r2_min_v;
        const I clamped = (low & __builtin_bit_cast(I, r2_min_v)) |
                          (~low & __builtin_bit_cast(I, r2));
        r2 = __builtin_bit_cast(V, clamped);
        const V s2 = sigma2_v / r2;
        const V s6 = s2 * s2 * s2;
        const V f = eps24_v * (2.0 * s6 * s6 - s6) / r2;
        std::memcpy(hit_f + h, &f, sizeof f);
      }

      for (std::size_t h = 0; h < hits; ++h) {
        const std::size_t j = hit_j[h];
        const std::size_t o = j - first;
        const double f = hit_f[h];
        fxm += f * dx_c[o];
        fym += f * dy_c[o];
        fzm += f * dz_c[o];
        if (j < n) {  // an own particle takes the opposite force
          fx[j] -= f * dx_c[o];
          fy[j] -= f * dy_c[o];
          fz[j] -= f * dz_c[o];
        }
      }
    }
    fx[m] = fxm;
    fy[m] = fym;
    fz[m] = fzm;
  }
}

using ForcesInto = void (*)(std::span<const Particle>, const Mol3dGhosts&,
                            const Mol3dConfig&, double*, double*, double*);

void two_lane_forces(std::span<const Particle> particles,
                     const Mol3dGhosts& ghosts, const Mol3dConfig& config,
                     double* fx, double* fy, double* fz) {
  forces_body<V2d, V2i>(particles, ghosts, config, fx, fy, fz);
}

#if defined(__x86_64__)
// AVX2 and nothing more: AVX2 does not imply FMA, so no product here can
// be contracted into a fused multiply-add (docs/applications.md).
[[gnu::target("avx2")]] void avx2_forces(std::span<const Particle> particles,
                                         const Mol3dGhosts& ghosts,
                                         const Mol3dConfig& config,
                                         double* fx, double* fy,
                                         double* fz) {
  forces_body<V4d, V4i>(particles, ghosts, config, fx, fy, fz);
}
#endif

/// A width's kernel writing into `out`, resized to particles.size().
template <ForcesInto kernel>
void into_vectors(std::span<const Particle> particles,
                  const Mol3dGhosts& ghosts, const Mol3dConfig& config,
                  Mol3dForces& out) {
  const std::size_t n = particles.size();
  out.fx.resize(n);
  out.fy.resize(n);
  out.fz.resize(n);
  kernel(particles, ghosts, config, out.fx.data(), out.fy.data(),
         out.fz.data());
}

/// The widest kernel the host runs, picked once per process.
ForcesInto host_kernel() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return avx2_forces;
#endif
  return two_lane_forces;
}

}  // namespace

Mol3dKernels mol3d_kernels() {
  Mol3dKernels kernels{into_vectors<two_lane_forces>, nullptr};
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) kernels.avx2 = into_vectors<avx2_forces>;
#endif
  return kernels;
}

void mol3d_forces(std::span<const Particle> particles, const Mol3dGhosts& ghosts,
                  const Mol3dConfig& config, double* fx, double* fy,
                  double* fz) {
  static const ForcesInto kernel = host_kernel();
  kernel(particles, ghosts, config, fx, fy, fz);
}

void mol3d_forces(std::span<const Particle> particles, const Mol3dGhosts& ghosts,
                  const Mol3dConfig& config, Mol3dForces& out) {
  into_vectors<mol3d_forces>(particles, ghosts, config, out);
}

void Mol3dConfig::validate() const {
  CLB_CHECK_MSG(cells_x >= 3 && cells_y >= 3 && cells_z >= 3,
                "each dimension needs >= 3 cells for distinct neighbours");
  CLB_CHECK(num_particles > 0);
  CLB_CHECK(iterations >= 1);
  CLB_CHECK(cutoff > 0.0 && cutoff <= 1.0);
  CLB_CHECK(sigma > 0.0);
  CLB_CHECK(dt > 0.0);
  CLB_CHECK(cluster_fraction >= 0.0 && cluster_fraction <= 1.0);
  CLB_CHECK(sec_per_pair >= 0.0 && ghost_sec_per_particle >= 0.0);
}

Mol3dChare::Mol3dChare(const Mol3dConfig& config, int cx, int cy, int cz,
                       std::vector<Particle> particles)
    : config_{config},
      cx_{cx},
      cy_{cy},
      cz_{cz},
      particles_{std::move(particles)} {
  config_.validate();
  staged_.fill(particles_.size());
  lo_[0] = cx;
  hi_[0] = cx + 1;
  lo_[1] = cy;
  hi_[1] = cy + 1;
  lo_[2] = cz;
  hi_[2] = cz + 1;
  const int cells[3] = {config_.cells_x, config_.cells_y, config_.cells_z};
  for (int side = 0; side < 6; ++side) {
    int c[3] = {cx, cy, cz};
    const int axis = side / 2;
    c[axis] = (c[axis] + (side % 2 == 0 ? cells[axis] - 1 : 1)) % cells[axis];
    neighbor_[static_cast<std::size_t>(side)] =
        static_cast<ChareId>((c[2] * cells[1] + c[1]) * cells[0] + c[0]);
  }
}

void Mol3dChare::on_start() { send_phase(); }

void Mol3dChare::on_resume_sync() { send_phase(); }

void Mol3dChare::send_phase() {
  const std::span<const Particle> own = particles();
  for (std::size_t side = 0; side < 6; ++side) {
    std::vector<double> payload;
    const std::span<const Particle> leavers{particles_.data() + staged_[side],
                                            staged_[side + 1] - staged_[side]};
    payload.reserve(4 + own.size() * 3 + leavers.size() * 6);
    payload.push_back(static_cast<double>(iter_));
    payload.push_back(static_cast<double>(side ^ 1));  // receiver's face
    payload.push_back(static_cast<double>(own.size()));
    payload.push_back(static_cast<double>(leavers.size()));
    for (const Particle& p : own) {
      payload.push_back(p.x);
      payload.push_back(p.y);
      payload.push_back(p.z);
    }
    for (const Particle& p : leavers) {
      payload.push_back(p.x);
      payload.push_back(p.y);
      payload.push_back(p.z);
      payload.push_back(p.vx);
      payload.push_back(p.vy);
      payload.push_back(p.vz);
    }
    send(neighbor_[side], kMolGhost, std::move(payload));
  }
  // The leavers now belong to their neighbours; shrinking keeps capacity.
  particles_.resize(staged_[0]);
  staged_.fill(staged_[0]);
  // Fast neighbours may already have delivered every ghost for this
  // iteration while we were still computing the previous one.
  maybe_trigger_compute();
}

SimTime Mol3dChare::cost(const Message& msg) const {
  switch (msg.tag) {
    case kMolGhost: {
      const double records =
          msg.data.size() > 4 ? static_cast<double>(msg.data.size() - 4) / 3.0
                              : 0.0;
      return SimTime::from_seconds(config_.ghost_sec_per_particle * records);
    }
    case kMolCompute:
      return SimTime::from_seconds(config_.sec_per_pair *
                                   static_cast<double>(pairs_examined()));
    default:
      CLB_CHECK_MSG(false, "unknown mol3d tag " << msg.tag);
  }
  return SimTime::zero();
}

std::int64_t Mol3dChare::pairs_examined() const {
  const auto n = static_cast<std::int64_t>(staged_[0]);
  std::int64_t ghost_total = 0;
  for (const auto& g : slot(iter_).ghosts)
    ghost_total += static_cast<std::int64_t>(g.size() / 3);
  return n * (n - 1) / 2 + n * ghost_total;
}

void Mol3dChare::execute(Message& msg) {
  if (msg.tag == kMolGhost) {
    CLB_CHECK_MSG(msg.data.size() >= 4,
                  "ghost message (tag " << msg.tag << ") carries "
                                        << msg.data.size()
                                        << " values, want at least 4");
    // The header is checked as doubles: converting a NaN or out-of-range
    // value to an integer type is undefined behaviour.
    const double iter_value = msg.data[0];
    const double side_value = msg.data[1];
    const double ghost_value = msg.data[2];
    const double leave_value = msg.data[3];
    CLB_CHECK_MSG(whole_below(side_value, 6.0),
                  "ghost message (tag " << msg.tag << ") names side "
                                        << side_value << ", want 0..5");
    // A neighbour can be at most one iteration ahead of us.
    CLB_CHECK_MSG(iter_value == iter_ || iter_value == iter_ + 1,
                  "ghost message (tag " << msg.tag << ") for iteration "
                                        << iter_value << " while at "
                                        << iter_);
    // Both counts are below the payload size whenever the size adds up,
    // so checking that bound first keeps the sum exact.
    const auto size = static_cast<double>(msg.data.size());
    CLB_CHECK_MSG(whole_below(ghost_value, size) &&
                      whole_below(leave_value, size) &&
                      size == 4.0 + 3.0 * ghost_value + 6.0 * leave_value,
                  "ghost message (tag "
                      << msg.tag << ") carries " << msg.data.size()
                      << " values for " << ghost_value << " ghosts and "
                      << leave_value << " leavers");
    const int iter = static_cast<int>(iter_value);
    const auto side = static_cast<std::size_t>(side_value);
    const auto n_ghost = static_cast<std::size_t>(ghost_value);
    const auto n_leave = static_cast<std::size_t>(leave_value);

    // A received payload holds at least its header, so an empty one marks
    // a face still to come.
    IterSlot& s = slot(iter);
    CLB_CHECK_MSG(s.payloads[side].empty(),
                  "duplicate ghost for side " << side << " (tag " << msg.tag
                                              << ", iteration " << iter
                                              << ')');
    // The payload changes hands whole: the kernel reads the ghost triples
    // and the compute adopts the leavers where they arrived.
    s.payloads[side] = std::move(msg.data);
    const std::span<const double> data{s.payloads[side]};
    s.ghosts[side] = data.subspan(4, n_ghost * 3);
    s.leavers[side] = data.subspan(4 + n_ghost * 3, n_leave * 6);
    s.order[static_cast<std::size_t>(s.count++)] = side;
    maybe_trigger_compute();
    return;
  }

  CLB_CHECK_MSG(msg.tag == kMolCompute, "unknown mol3d tag " << msg.tag);
  CLB_CHECK_MSG(msg.data.size() == 1,
                "compute message (tag " << msg.tag << ") carries "
                                        << msg.data.size()
                                        << " values, want 1");
  CLB_CHECK_MSG(msg.data[0] == iter_, "compute message (tag "
                                          << msg.tag << ") for iteration "
                                          << msg.data[0] << " while at "
                                          << iter_);
  if (!compute_.started()) start_compute();  // run without on_task_start
  compute_.join();
  compute_pending_ = false;  // not before the join: the work's check reads it
  particles_ = std::exchange(pending_.cell, {});
  staged_ = pending_.staged;

  IterSlot& s = slot(iter_);
  // Freed, not kept: a kept buffer would hold on to the largest payload
  // its face ever sent (docs/applications.md). `= {}` would pick the
  // initializer-list assignment, which keeps the capacity.
  for (std::vector<double>& payload : s.payloads)
    payload = std::vector<double>{};
  s.ghosts = {};
  s.leavers = {};
  s.count = 0;

  report_iteration(iter_);
  ++iter_;
  if (iter_ >= config_.iterations) {
    finish();
    return;
  }
  const int period = job().lb_period();
  if (period > 0 && iter_ % period == 0) {
    at_sync();
  } else {
    send_phase();
  }
}

void Mol3dChare::maybe_trigger_compute() {
  if (compute_pending_) return;
  if (slot(iter_).count == 6) {
    compute_pending_ = true;
    // One double, from the PE's recycled payloads: the runtime takes it
    // back after the compute, so a warm cell sends it without allocating.
    std::vector<double> payload = new_payload();
    payload.push_back(static_cast<double>(iter_));
    send(id(), kMolCompute, std::move(payload));
  }
}

void Mol3dChare::on_task_start(const Message& msg) {
  if (msg.tag == kMolCompute) start_compute();
}

void Mol3dChare::start_compute() {
  // The cell's particles for this iteration: its own, then the ones its
  // neighbours handed over. One vector of exactly that size per
  // iteration, which the integrator rearranges in place, so a cell keeps
  // no capacity beyond its last iteration's particles. It is allocated
  // here, on the engine thread, and so is every other buffer a warm cell
  // allocates.
  std::size_t arriving = 0;
  for (const auto& leavers : slot(iter_).leavers) arriving += leavers.size() / 6;
  pending_.cell.reserve(particles_.size() + arriving);
  compute_.start([this] { compute_forces_and_integrate(); });
}

void Mol3dChare::compute_forces_and_integrate() {
  const double box[3] = {static_cast<double>(config_.cells_x),
                         static_cast<double>(config_.cells_y),
                         static_cast<double>(config_.cells_z)};
  CLB_CHECK_MSG(staged_[6] == staged_[0],
                "compute with leavers not yet sent: " << debug_state());
  // The own particles, then the arriving ones in arrival order.
  const IterSlot& s = slot(iter_);
  std::vector<Particle>& cell = pending_.cell;
  cell.insert(cell.end(), particles_.begin(), particles_.end());
  for (int k = 0; k < s.count; ++k) {
    const std::span<const double> leavers =
        s.leavers[s.order[static_cast<std::size_t>(k)]];
    for (std::size_t off = 0; off < leavers.size(); off += 6)
      cell.push_back({leavers[off], leavers[off + 1], leavers[off + 2],
                      leavers[off + 3], leavers[off + 4], leavers[off + 5]});
  }

  const std::size_t n = cell.size();
  StackBuffer<double, kStackParticles> fx(n), fy(n), fz(n);
  mol3d_forces(cell, s.ghosts, config_, fx.data(), fy.data(), fz.data());

  // Symplectic Euler, then periodic wrap and leaver detection. On the
  // final iteration nothing is staged: there is no further send phase, so
  // staged particles would be orphaned.
  const bool stage_leavers = iter_ + 1 < config_.iterations;
  StackBuffer<signed char, kStackParticles> side_of(n);
  std::array<std::size_t, 6> leaving{};
  for (std::size_t i = 0; i < n; ++i) {
    Particle& p = cell[i];
    p.vx += fx.data()[i] * config_.dt;
    p.vy += fy.data()[i] * config_.dt;
    p.vz += fz.data()[i] * config_.dt;
    p.x = wrap(p.x + p.vx * config_.dt, box[0]);
    p.y = wrap(p.y + p.vy * config_.dt, box[1]);
    p.z = wrap(p.z + p.vz * config_.dt, box[2]);
    const int side = stage_leavers ? side_of_leaver(p) : -1;
    side_of.data()[i] = static_cast<signed char>(side);
    if (side >= 0) ++leaving[static_cast<std::size_t>(side)];
  }
  // The particles that stay move to the front, in index order; the
  // leavers wait on the stack, then go behind them, grouped by face in
  // index order.
  std::array<std::size_t, 7>& staged = pending_.staged;
  staged[0] = n;
  for (const std::size_t count : leaving) staged[0] -= count;
  for (std::size_t side = 0; side < 6; ++side)
    staged[side + 1] = staged[side] + leaving[side];
  StackBuffer<Particle, 32> leavers(n - staged[0]);
  std::array<std::size_t, 6> next{};
  for (std::size_t side = 0; side < 6; ++side)
    next[side] = staged[side] - staged[0];
  std::size_t kept = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const int side = side_of.data()[i];
    if (side < 0) {
      cell[kept++] = cell[i];
    } else {
      leavers.data()[next[static_cast<std::size_t>(side)]++] = cell[i];
    }
  }
  std::copy_n(leavers.data(), n - kept, cell.begin() + static_cast<std::ptrdiff_t>(kept));
}

int Mol3dChare::side_of_leaver(const Particle& p) const {
  const double box[3] = {static_cast<double>(config_.cells_x),
                         static_cast<double>(config_.cells_y),
                         static_cast<double>(config_.cells_z)};
  const double pos[3] = {p.x, p.y, p.z};
  for (int axis = 0; axis < 3; ++axis) {
    if (pos[axis] >= lo_[axis] && pos[axis] < hi_[axis]) continue;
    // Outside on this axis: pick the face pointing toward the particle in
    // the periodic sense (shortest way around).
    const double center = 0.5 * (lo_[axis] + hi_[axis]);
    const double d = min_image(pos[axis] - center, box[axis]);
    return axis * 2 + (d >= 0 ? 1 : 0);
  }
  return -1;  // still inside: not a leaver
}

std::string Mol3dChare::debug_state() const {
  std::ostringstream os;
  os << "cell(" << cx_ << ',' << cy_ << ',' << cz_ << ") iter=" << iter_
     << " pending=" << compute_pending_ << " particles=" << staged_[0];
  // Only iterations iter_ and iter_ + 1 can hold ghosts.
  for (const int it : {iter_, iter_ + 1}) {
    if (slot(it).count == 0) continue;
    std::size_t incoming = 0;
    for (const auto& leavers : slot(it).leavers) incoming += leavers.size() / 6;
    os << " ghosts[" << it << "]=" << slot(it).count << " incoming[" << it
       << "]=" << incoming;
  }
  return os.str();
}

std::size_t Mol3dChare::held_ghost_values() const {
  std::size_t held = 0;
  for (const IterSlot& s : slots_)
    for (const std::vector<double>& payload : s.payloads)
      held += payload.capacity();
  return held;
}

std::size_t Mol3dChare::footprint_bytes() const {
  return staged_[0] * sizeof(Particle) + 512;
}

std::vector<Particle> mol3d_initial_particles(const Mol3dConfig& config) {
  config.validate();
  const double box[3] = {static_cast<double>(config.cells_x),
                         static_cast<double>(config.cells_y),
                         static_cast<double>(config.cells_z)};
  Rng rng{config.seed};
  const double centers[2][3] = {
      {0.25 * box[0], 0.50 * box[1], 0.50 * box[2]},
      {0.70 * box[0], 0.30 * box[1], 0.65 * box[2]},
  };
  std::vector<Particle> particles;
  particles.reserve(static_cast<std::size_t>(config.num_particles));
  for (int i = 0; i < config.num_particles; ++i) {
    Particle p;
    if (rng.next_double() < config.cluster_fraction) {
      const auto& c = centers[i % 2];
      const double spread = 0.25;
      p.x = wrap(rng.normal(c[0], spread * box[0]), box[0]);
      p.y = wrap(rng.normal(c[1], spread * box[1]), box[1]);
      p.z = wrap(rng.normal(c[2], spread * box[2]), box[2]);
    } else {
      p.x = rng.uniform(0.0, box[0]);
      p.y = rng.uniform(0.0, box[1]);
      p.z = rng.uniform(0.0, box[2]);
    }
    p.vx = rng.normal(0.0, 0.05);
    p.vy = rng.normal(0.0, 0.05);
    p.vz = rng.normal(0.0, 0.05);
    particles.push_back(p);
  }
  return particles;
}

void populate_mol3d(RuntimeJob& job, const Mol3dConfig& config) {
  const std::vector<Particle> all = mol3d_initial_particles(config);
  const auto bin_of = [&config](const Particle& p) {
    const int cx = std::min(static_cast<int>(p.x), config.cells_x - 1);
    const int cy = std::min(static_cast<int>(p.y), config.cells_y - 1);
    const int cz = std::min(static_cast<int>(p.z), config.cells_z - 1);
    return static_cast<std::size_t>((cz * config.cells_y + cy) *
                                        config.cells_x +
                                    cx);
  };
  // Each bin is allocated once, at its exact size.
  std::vector<std::size_t> counts(static_cast<std::size_t>(config.num_cells()));
  for (const Particle& p : all) ++counts[bin_of(p)];
  std::vector<std::vector<Particle>> bins(counts.size());
  for (std::size_t b = 0; b < bins.size(); ++b) bins[b].reserve(counts[b]);
  for (const Particle& p : all) bins[bin_of(p)].push_back(p);
  std::size_t bin = 0;
  for (int cz = 0; cz < config.cells_z; ++cz)
    for (int cy = 0; cy < config.cells_y; ++cy)
      for (int cx = 0; cx < config.cells_x; ++cx) {
        // Mol3dChare's neighbour table routes ghosts by the computed cell id
        // `(cz*cells_y + cy)*cells_x + cx`; that only matches add_chare's
        // assignment when the job starts empty.
        const ChareId id = job.add_chare(std::make_unique<Mol3dChare>(
            config, cx, cy, cz, std::move(bins[bin++])));
        CLB_CHECK_MSG(
            id == static_cast<ChareId>(
                      (cz * config.cells_y + cy) * config.cells_x + cx),
            "populate_mol3d requires an empty job: cell (" << cx << ',' << cy
                << ',' << cz << ") was assigned chare id " << id);
      }
}

}  // namespace cloudlb
