#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <utility>
#include <vector>

#include "util/sim_time.h"

namespace cloudlb {

/// Test-only reference for EngineCore's firing order: one plain ordered
/// container of (time, stamp, rank, seq) keys and nothing else — no arena,
/// no heap, no lane, no lazy cancellation. It mirrors the engine's
/// scheduling API closely enough that one templated script drives both
/// (tests/engine_diff_test.cc), and it records the (time, seq) pairs it
/// fires the way EngineCore's trace hook reports them.
class EventOrderOracle {
 public:
  using Callback = std::function<void()>;

  /// Names one scheduled event by its sequence number; 0 is inert.
  struct Handle {
    std::uint64_t seq = 0;
  };

  struct Key {
    SimTime time;
    SimTime stamp;
    std::uint64_t rank = 0;
    std::uint64_t seq = 0;
    bool operator<(const Key& o) const {
      return std::tie(time, stamp, rank, seq) <
             std::tie(o.time, o.stamp, o.rank, o.seq);
    }
  };

  [[nodiscard]] SimTime now() const { return now_; }

  Handle schedule_at(SimTime t, Callback cb) {
    return schedule_at_ranked(t, now_, current_rank_, std::move(cb));
  }
  Handle schedule_at_stamped(SimTime t, SimTime stamp, Callback cb) {
    return schedule_at_ranked(t, stamp, current_rank_, std::move(cb));
  }
  Handle schedule_at_ranked(SimTime t, SimTime stamp, std::uint64_t rank,
                            Callback cb);
  Handle schedule_after(SimTime delay, Callback cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// True when `h` named a pending event, which is now gone.
  bool cancel(Handle h);

  /// Fires the least pending key; false when nothing is pending.
  bool step();
  void run() {
    while (step()) {
    }
  }
  void run_until(SimTime t);
  void run_before(SimTime t);

  [[nodiscard]] std::uint64_t current_rank() const { return current_rank_; }
  void set_current_rank(std::uint64_t rank) { current_rank_ = rank; }

  [[nodiscard]] std::optional<Key> next_key() const;
  [[nodiscard]] std::size_t pending() const { return pending_.size(); }

  /// (time, seq) of every fired event, in firing order.
  [[nodiscard]] const std::vector<std::pair<SimTime, std::uint64_t>>& trace()
      const {
    return trace_;
  }

 private:
  std::map<Key, Callback> pending_;
  std::map<std::uint64_t, Key> key_of_seq_;
  std::vector<std::pair<SimTime, std::uint64_t>> trace_;
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_rank_ = 0;
};

}  // namespace cloudlb
