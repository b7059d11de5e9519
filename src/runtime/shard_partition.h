#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "runtime/lb_database.h"
#include "util/check.h"
#include "util/shard_annotations.h"
#include "util/sim_time.h"

namespace cloudlb {

/// One shard's slice of a RuntimeJob's mutable window state. During a
/// conservative window the shard's worker writes *only* its own segment —
/// that is the whole point of the partition: the LB database, the barrier
/// counters and the iteration tallies all become shard-local, so parallel
/// windows never touch shared runtime state. The segments are combined at
/// window barriers (cheap totals) and at global phases (full merges) by
/// the driving thread, always in shard-index order, so the reduction tree
/// over segments is the same for every worker count.
///
/// Cache-line aligned so two shards' hot counters never share a line.
struct alignas(64) CLB_SHARD_CONFINED ShardSegment {
  /// Shard-local LB database slice: records tasks of chares hosted on
  /// this shard's PEs. Sized to the full chare count — a chare's row is
  /// nonzero in at most one segment per window (migrations happen only at
  /// global barriers), so the merged per-chare CPU is a sum of one
  /// nonzero value and zeros: bit-identical to a single database.
  LbDatabase db;

  // Window-local counters (merged into Counters on demand).
  std::int64_t tasks_executed = 0;
  std::int64_t messages_sent = 0;

  // Barrier bookkeeping: how many of this shard's chares are waiting at
  // an AtSync barrier / have contributed to the open reduction / have
  // finished, and when the last of each happened. The host's window
  // merge sums the counts across shards to detect quiescence and takes
  // the max of the times to recover the exact completion instant. The
  // ranks are those of the events that ran the last at_sync/contribute:
  // on one engine the collective completes inside that event, so what it
  // schedules inherits that rank.
  std::size_t sync_count = 0;
  SimTime last_sync_time;
  std::uint64_t last_sync_rank = 0;
  std::size_t red_count = 0;
  std::uint64_t last_contribution_rank = 0;
  /// (time, value) per contribution, in this shard's execution order —
  /// replayed in canonical shard-then-time order by the global merge so
  /// the reduction sum is independent of worker count.
  std::vector<std::pair<SimTime, double>> contributions;
  std::size_t finished_chares = 0;
  SimTime last_finish_time;

  /// Per-iteration completion counts and the shard-local last completion
  /// time (index = iteration number).
  std::vector<int> iteration_reports;
  std::vector<SimTime> iteration_last_times;

  void reset(std::size_t num_chares) {
    db.reset(num_chares);
    tasks_executed = 0;
    messages_sent = 0;
    sync_count = 0;
    last_sync_time = SimTime::zero();
    last_sync_rank = 0;
    red_count = 0;
    last_contribution_rank = 0;
    contributions.clear();
    finished_chares = 0;
    last_finish_time = SimTime::zero();
    iteration_reports.clear();
    iteration_last_times.clear();
  }
};

/// The full partition: one segment per shard plus the canonical-order
/// reduction helpers the barrier bookkeeping and the global phases use.
/// All merged reads run on the driving thread between windows.
class ShardPartition {
 public:
  ShardPartition(int shards, std::size_t num_chares) {
    CLB_CHECK(shards >= 1);
    segs_.resize(static_cast<std::size_t>(shards));
    reset(num_chares);
  }

  CLB_BARRIER_PHASE void reset(std::size_t num_chares) {
    for (auto& s : segs_) s.reset(num_chares);
  }

  [[nodiscard]] int shards() const { return static_cast<int>(segs_.size()); }
  [[nodiscard]] ShardSegment& seg(int s) {
    return segs_[static_cast<std::size_t>(s)];
  }
  [[nodiscard]] const ShardSegment& seg(int s) const {
    return segs_[static_cast<std::size_t>(s)];
  }

  // --- Shard-local reduction subtrees, combined in shard-index order ---

  [[nodiscard]] CLB_BARRIER_PHASE std::size_t sync_total() const {
    std::size_t n = 0;
    for (const auto& s : segs_) n += s.sync_count;
    return n;
  }
  [[nodiscard]] CLB_BARRIER_PHASE std::size_t red_total() const {
    std::size_t n = 0;
    for (const auto& s : segs_) n += s.red_count;
    return n;
  }
  [[nodiscard]] CLB_BARRIER_PHASE std::size_t finished_total() const {
    std::size_t n = 0;
    for (const auto& s : segs_) n += s.finished_chares;
    return n;
  }
  [[nodiscard]] CLB_BARRIER_PHASE std::int64_t tasks_total() const {
    std::int64_t n = 0;
    for (const auto& s : segs_) n += s.tasks_executed;
    return n;
  }
  [[nodiscard]] CLB_BARRIER_PHASE std::int64_t messages_total() const {
    std::int64_t n = 0;
    for (const auto& s : segs_) n += s.messages_sent;
    return n;
  }

  /// (time, rank) of the latest at_sync across shards. A time tie goes
  /// to the higher rank, which a single engine would have run later.
  [[nodiscard]] CLB_BARRIER_PHASE std::pair<SimTime, std::uint64_t>
  last_sync() const {
    std::pair<SimTime, std::uint64_t> last{};
    for (const auto& s : segs_)
      if (s.sync_count > 0)
        last = std::max(last, {s.last_sync_time, s.last_sync_rank});
    return last;
  }
  /// (time, rank) of the latest contribution across shards, as above;
  /// each shard's log is in its own execution order.
  [[nodiscard]] CLB_BARRIER_PHASE std::pair<SimTime, std::uint64_t>
  last_contribution() const {
    std::pair<SimTime, std::uint64_t> last{};
    for (const auto& s : segs_)
      if (!s.contributions.empty())
        last = std::max(last, {s.contributions.back().first,
                               s.last_contribution_rank});
    return last;
  }
  [[nodiscard]] CLB_BARRIER_PHASE SimTime max_finish_time() const {
    SimTime t = SimTime::zero();
    for (const auto& s : segs_)
      if (s.finished_chares > 0 && s.last_finish_time > t)
        t = s.last_finish_time;
    return t;
  }

  /// Merged reduction sum in canonical order: shard-local partial sums
  /// (each in that shard's execution order) combined shard 0..S-1. The
  /// per-shard subtrees make the result independent of worker count;
  /// it is bit-identical to the legacy arrival-order sum exactly when no
  /// two cross-shard contributions are concurrent (see
  /// docs/sharded-engine.md for the caveat).
  [[nodiscard]] CLB_CANONICAL_COMBINE double reduction_sum() const {
    double total = 0.0;
    for (const auto& s : segs_) {
      double partial = 0.0;
      for (const auto& [t, value] : s.contributions) partial += value;
      total += partial;
    }
    return total;
  }

  /// Merged per-chare window CPU: the chare's row summed across segments
  /// (at most one nonzero, so this is exact).
  [[nodiscard]] CLB_CANONICAL_COMBINE double chare_cpu(ChareId chare) const {
    double total = 0.0;
    for (const auto& s : segs_) total += s.db.chare_cpu(chare);
    return total;
  }

  CLB_BARRIER_PHASE void clear_windows() {
    for (auto& s : segs_) s.db.clear_window();
  }

  /// Clears the barrier-wave state after an AtSync wave completes.
  CLB_BARRIER_PHASE void clear_sync() {
    for (auto& s : segs_) {
      s.sync_count = 0;
      s.last_sync_time = SimTime::zero();
      s.last_sync_rank = 0;
    }
  }

  /// Clears the open reduction after its broadcast is scheduled.
  CLB_BARRIER_PHASE void clear_reduction() {
    for (auto& s : segs_) {
      s.red_count = 0;
      s.contributions.clear();
      s.last_contribution_rank = 0;
    }
  }

 private:
  std::vector<ShardSegment> segs_;
};

}  // namespace cloudlb
