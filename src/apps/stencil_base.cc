#include "apps/stencil_base.h"

#include <cmath>
#include <utility>

#include "runtime/job.h"
#include "util/check.h"

namespace cloudlb {

void StencilLayout::validate() const {
  CLB_CHECK(grid_x >= 3 && grid_y >= 3);
  CLB_CHECK(blocks_x >= 1 && blocks_y >= 1);
  CLB_CHECK(blocks_x <= grid_x && blocks_y <= grid_y);
  CLB_CHECK(iterations >= 1);
  CLB_CHECK(sec_per_point >= 0.0);
  CLB_CHECK(ghost_sec_per_value >= 0.0);
  CLB_CHECK(residual_period >= 0);
  CLB_CHECK(residual_tolerance >= 0.0);
}

StencilBlock StencilLayout::block(int bx, int by) const {
  CLB_CHECK(bx >= 0 && bx < blocks_x);
  CLB_CHECK(by >= 0 && by < blocks_y);
  StencilBlock b;
  b.grid_x = grid_x;
  b.grid_y = grid_y;
  b.x0 = bx * grid_x / blocks_x;
  b.y0 = by * grid_y / blocks_y;
  b.nx = (bx + 1) * grid_x / blocks_x - b.x0;
  b.ny = (by + 1) * grid_y / blocks_y - b.y0;
  return b;
}

double stencil_initial_value(int i, int j, int grid_x, int grid_y) {
  const double pi = 3.14159265358979323846;
  const double x = static_cast<double>(i) / (grid_x - 1);
  const double y = static_cast<double>(j) / (grid_y - 1);
  const double mode = std::sin(pi * x) * std::sin(pi * y);
  const double dx = x - 0.3;
  const double dy = y - 0.6;
  const double bump = std::exp(-(dx * dx + dy * dy) / 0.02);
  return mode + 0.5 * bump;
}

StencilBlockChare::StencilBlockChare(const StencilLayout& layout, int bx,
                                     int by)
    : layout_{layout} {
  layout_.validate();
  block_ = layout_.block(bx, by);
  CLB_CHECK_MSG(block_.nx > 0 && block_.ny > 0,
                "empty block — too many blocks");

  const auto block_id = [&](int x, int y) -> ChareId {
    return static_cast<ChareId>(y * layout_.blocks_x + x);
  };
  neighbor_[kWest] = bx > 0 ? block_id(bx - 1, by) : -1;
  neighbor_[kEast] = bx < layout.blocks_x - 1 ? block_id(bx + 1, by) : -1;
  neighbor_[kNorth] = by > 0 ? block_id(bx, by - 1) : -1;
  neighbor_[kSouth] = by < layout.blocks_y - 1 ? block_id(bx, by + 1) : -1;
  for (const ChareId n : neighbor_)
    if (n != -1) ++expected_ghosts_;
}

std::size_t StencilBlockChare::state_bytes() const {
  return static_cast<std::size_t>(nx()) * static_cast<std::size_t>(ny()) *
         sizeof(double);
}

std::size_t StencilBlockChare::footprint_bytes() const {
  return state_bytes() + 512;  // numerical state + object overhead
}

void StencilBlockChare::on_start() { send_ghosts(); }

void StencilBlockChare::on_resume_sync() { send_ghosts(); }

void StencilBlockChare::append_edge_of(const std::vector<double>& values,
                                       Side side,
                                       std::vector<double>& out) const {
  const auto w = static_cast<std::size_t>(nx());
  const auto h = static_cast<std::size_t>(ny());
  const double* v = values.data();
  switch (side) {
    case kWest:
      for (std::size_t j = 0; j < h; ++j) out.push_back(v[j * w]);
      break;
    case kEast:
      for (std::size_t j = 0; j < h; ++j) out.push_back(v[j * w + w - 1]);
      break;
    case kNorth:
      out.insert(out.end(), v, v + w);
      break;
    case kSouth:
      out.insert(out.end(), v + (h - 1) * w, v + h * w);
      break;
  }
}

void StencilBlockChare::send_ghosts() {
  static constexpr Side kOpposite[4] = {kEast, kWest, kSouth, kNorth};
  for (int side = 0; side < 4; ++side) {
    const ChareId dest = neighbor_[static_cast<std::size_t>(side)];
    if (dest == -1) continue;
    const int edge_len = side == kWest || side == kEast ? ny() : nx();
    std::vector<double> payload = new_payload();
    payload.reserve(static_cast<std::size_t>(edge_len) + 2);
    payload.push_back(static_cast<double>(iter_));
    payload.push_back(static_cast<double>(kOpposite[side]));
    append_edge(static_cast<Side>(side), payload);
    send(dest, kTagGhost, std::move(payload));
  }
  maybe_trigger_compute();  // blocks with zero neighbours (1-block layouts)
}

SimTime StencilBlockChare::cost(const Message& msg) const {
  switch (msg.tag) {
    case kTagGhost:
      return SimTime::from_seconds(
          layout_.ghost_sec_per_value *
          static_cast<double>(msg.data.size() > 2 ? msg.data.size() - 2 : 0));
    case kTagCompute:
      return SimTime::from_seconds(layout_.sec_per_point *
                                   static_cast<double>(nx()) *
                                   static_cast<double>(ny()));
    default:
      CLB_CHECK_MSG(false, "unknown stencil tag " << msg.tag);
  }
  return SimTime::zero();
}

void StencilBlockChare::execute(Message& msg) {
  if (msg.tag == kTagGhost) {
    CLB_CHECK_MSG(msg.data.size() >= 2,
                  "ghost message (tag " << msg.tag << ") carries "
                                        << msg.data.size()
                                        << " values, want at least 2");
    // Both header values are range-checked as doubles: converting a NaN
    // or out-of-range value to an integer type is undefined behaviour.
    const double iter_value = msg.data[0];
    const double side_value = msg.data[1];
    CLB_CHECK_MSG(side_value >= 0.0 && side_value < 4.0,
                  "ghost message (tag " << msg.tag << ") names side "
                                        << side_value << ", want 0..3");
    // A neighbour can be at most one iteration ahead of us.
    CLB_CHECK_MSG(iter_value == iter_ || iter_value == iter_ + 1,
                  "ghost for iteration " << iter_value << " while at "
                                         << iter_);
    const int iter = static_cast<int>(iter_value);
    const auto side = static_cast<std::size_t>(side_value);
    GhostSlot& slot = ghost_slot(iter);
    CLB_CHECK_MSG(!slot.have[side], "duplicate ghost for side " << side);
    std::vector<double>& edge = slot.edges[side];
    edge = new_payload();
    edge.assign(msg.data.begin() + 2, msg.data.end());
    slot.have[side] = true;
    ++slot.count;
    maybe_trigger_compute();
    return;
  }

  CLB_CHECK(msg.tag == kTagCompute);
  CLB_CHECK_MSG(msg.data.size() == 1,
                "compute message (tag " << msg.tag << ") carries "
                                        << msg.data.size()
                                        << " values, want 1");
  CLB_CHECK_MSG(msg.data[0] == iter_, "compute message (tag "
                                          << msg.tag << ") for iteration "
                                          << msg.data[0] << " while at "
                                          << iter_);
  compute_pending_ = false;
  GhostSlot& slot = ghost_slot(iter_);
  apply_update(slot.edges);
  // The edge buffers go back to the PE's recycled payloads rather than
  // stay with the chare, so idle blocks hold no ghost storage.
  for (std::vector<double>& edge : slot.edges)
    recycle_payload(std::exchange(edge, {}));
  slot.have = {};
  slot.count = 0;

  report_iteration(iter_);
  ++iter_;
  if (iter_ >= layout_.iterations) {
    finish();
    return;
  }
  if (layout_.residual_period > 0 &&
      iter_ % layout_.residual_period == 0) {
    awaiting_reduction_ = true;
    contribute(local_residual());
    return;  // quiet until the global residual arrives
  }
  proceed_to_next_iteration();
}

void StencilBlockChare::on_reduction_result(double global_residual) {
  CLB_CHECK_MSG(awaiting_reduction_, "unexpected reduction result");
  awaiting_reduction_ = false;
  if (global_residual < layout_.residual_tolerance) {
    finish();  // converged everywhere: every chare sees the same sum
    return;
  }
  proceed_to_next_iteration();
}

void StencilBlockChare::proceed_to_next_iteration() {
  const int period = job().lb_period();
  if (period > 0 && iter_ % period == 0) {
    at_sync();
  } else {
    send_ghosts();
  }
}

void StencilBlockChare::maybe_trigger_compute() {
  if (compute_pending_) return;
  if (ghost_slot(iter_).count == expected_ghosts_) {
    compute_pending_ = true;
    std::vector<double> payload = new_payload();
    payload.push_back(static_cast<double>(iter_));
    send(id(), kTagCompute, std::move(payload));
  }
}

}  // namespace cloudlb
