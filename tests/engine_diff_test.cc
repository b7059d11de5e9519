// Differential tier for the event engine: EngineCore (a 4-ary heap plus
// the current-instant lane, lazy cancellation, compaction) against
// EventOrderOracle (tests/support/), a plain ordered container of
// (time, stamp, rank, seq) keys. One templated script drives both with
// the same randomized operations; the firing sequences, clocks, cancel
// results and pending counts must agree exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "support/event_order_oracle.h"
#include "util/validate.h"

namespace cloudlb {
namespace {

constexpr SimTime kTick = SimTime::micros(1);

/// A randomized schedule/cancel/drive script over one engine. Every
/// random draw happens in firing order, so a divergence in order also
/// shows up as diverging logs. Callbacks may schedule at now() with a key
/// below their own (a lower rank, an older stamp), which the engine's
/// monotone-order validation forbids, so the script runs unvalidated and
/// audits the engine's structure after every operation instead.
template <class Engine>
class Script {
 public:
  using Handle = decltype(std::declval<Engine&>().schedule_after(
      SimTime::zero(), [] {}));

  Script(Engine& engine, std::uint64_t seed) : e_{engine}, rng_{seed} {}

  /// Runs `ops` driver operations, then drains; returns the log.
  std::vector<std::int64_t> run(int ops) {
    for (int i = 0; i < ops; ++i) {
      drive_one();
      if constexpr (std::is_same_v<Engine, Simulator>) e_.validate_integrity();
      note(e_.now().ns());
      note(static_cast<std::int64_t>(e_.pending()));
    }
    e_.run();
    note(e_.now().ns());
    return log_;
  }

 private:
  std::uint64_t draw(std::uint64_t n) { return rng_() % n; }
  void note(std::int64_t v) { log_.push_back(v); }

  /// What every fired event does.
  void act() {
    note(e_.now().ns());
    note(static_cast<std::int64_t>(e_.current_rank()));
    const std::uint64_t r = draw(100);
    if (r < 55) {
      schedule_random();
    } else if (r < 68) {
      schedule_random();
      schedule_random();
    } else if (r < 72) {
      reverse_rank_burst();
    } else if (r < 86) {
      cancel_random();
    } else if (r < 92) {
      e_.set_current_rank(draw(8));
      schedule_random();
    }
  }

  /// One schedule of a random kind: zero delay (the lane's case) about
  /// half the time, a few ticks ahead otherwise; stamps may sit behind
  /// the clock; ranks are small, so keys tie often.
  void schedule_random() {
    if (budget_ == 0 || e_.pending() > 400) return;
    --budget_;
    const SimTime t =
        e_.now() + (draw(2) == 0 ? SimTime::zero()
                                 : kTick * static_cast<std::int64_t>(
                                               1 + draw(6)));
    auto cb = [this] { act(); };
    switch (draw(4)) {
      case 0:
        handles_.push_back(e_.schedule_at(t, cb));
        break;
      case 1: {
        const SimTime back = kTick * static_cast<std::int64_t>(draw(4));
        const SimTime stamp = back < e_.now() ? e_.now() - back
                                              : SimTime::zero();
        handles_.push_back(e_.schedule_at_stamped(t, stamp, cb));
        break;
      }
      case 2:
        handles_.push_back(
            e_.schedule_at_ranked(t, e_.now(), draw(8), cb));
        break;
      default:
        handles_.push_back(e_.schedule_after(t - e_.now(), cb));
        break;
    }
  }

  /// Events at now() in descending rank order: longer than the lane's
  /// bounded insert, so most of them must fall back to the heap.
  void reverse_rank_burst() {
    const std::uint64_t n = 12 + draw(12);
    for (std::uint64_t i = 0; i < n && budget_ > 0; ++i, --budget_)
      handles_.push_back(e_.schedule_at_ranked(e_.now(), e_.now(), 40 - i,
                                               [this] { act(); }));
  }

  void cancel_random() {
    if (handles_.empty()) return;
    note(e_.cancel(handles_[draw(handles_.size())]) ? 1 : 0);
  }

  /// Enough schedule/cancel churn to compact while zero-delay entries
  /// sit live in the lane.
  void churn() {
    const std::size_t first = handles_.size();
    for (int i = 0; i < 8; ++i)
      handles_.push_back(e_.schedule_after(SimTime::zero(), [this] { act(); }));
    for (int i = 0; i < 150; ++i)
      handles_.push_back(e_.schedule_after(
          kTick * static_cast<std::int64_t>(1 + draw(20)), [this] { act(); }));
    for (std::size_t i = first; i < handles_.size(); ++i)
      if (draw(10) != 0 && (i - first) % 3 != 0)
        note(e_.cancel(handles_[i]) ? 1 : 0);
  }

  void drive_one() {
    const std::uint64_t r = draw(100);
    if (r < 30) {
      note(e_.step() ? 1 : 0);
    } else if (r < 45) {
      e_.run_until(e_.now() + kTick * static_cast<std::int64_t>(draw(4)));
    } else if (r < 60) {
      e_.run_before(e_.now() + kTick * static_cast<std::int64_t>(draw(4)));
    } else if (r < 78) {
      schedule_random();
    } else if (r < 82) {
      reverse_rank_burst();
    } else if (r < 86) {
      churn();
    } else if (r < 92) {
      cancel_random();
    }
  }

  Engine& e_;
  std::mt19937_64 rng_;
  std::uint64_t budget_ = 3000;
  std::vector<Handle> handles_;
  std::vector<std::int64_t> log_;
};

using Trace = std::vector<std::pair<SimTime, std::uint64_t>>;

void expect_same_run(std::uint64_t seed) {
  ValidationScope unvalidated{false};  // also in CLOUDLB_VALIDATE builds
  Simulator engine;
  Trace engine_trace;
  engine.set_trace_hook([&engine_trace](SimTime t, std::uint64_t seq) {
    engine_trace.emplace_back(t, seq);
  });
  const std::vector<std::int64_t> engine_log =
      Script<Simulator>{engine, seed}.run(300);
  engine.validate_integrity();

  EventOrderOracle oracle;
  const std::vector<std::int64_t> oracle_log =
      Script<EventOrderOracle>{oracle, seed}.run(300);

  ASSERT_EQ(engine_trace, oracle.trace()) << "seed " << seed;
  ASSERT_EQ(engine_log, oracle_log) << "seed " << seed;
  EXPECT_GT(engine_trace.size(), 100u) << "seed " << seed;
}

TEST(EngineDiffTest, RandomScriptsMatchTheOracle) {
  for (std::uint64_t seed = 1; seed <= 120; ++seed) expect_same_run(seed);
}

// Pending-key peeks agree with the oracle's least key, with stale heads
// in both containers and a heap entry at the lane's own instant.
TEST(EngineDiffTest, NextLiveKeyIsTheLesserHead) {
  Simulator engine;
  EventOrderOracle oracle;
  const SimTime t = SimTime::micros(3);
  std::vector<EventHandle> handles;
  std::vector<EventOrderOracle::Handle> oracle_handles;
  const auto schedule = [&](std::uint64_t rank) {
    handles.push_back(engine.schedule_at_ranked(t, t, rank, [] {}));
    oracle_handles.push_back(oracle.schedule_at_ranked(t, t, rank, [] {}));
  };
  for (std::uint64_t rank : {4u, 3u, 8u}) schedule(rank);  // heap: t > now
  engine.run_before(t);
  oracle.run_before(t);
  for (std::uint64_t rank : {5u, 6u, 2u, 7u, 1u}) schedule(rank);  // lane
  for (std::size_t doomed : {1u, 7u}) {  // a heap entry and a lane entry
    ASSERT_TRUE(engine.cancel(handles[doomed]));
    ASSERT_TRUE(oracle.cancel(oracle_handles[doomed]));
  }
  while (oracle.next_key()) {
    const auto key = engine.next_live_key();
    const auto expected = oracle.next_key();
    ASSERT_TRUE(key.has_value());
    EXPECT_EQ(key->time, expected->time);
    EXPECT_EQ(key->stamp, expected->stamp);
    EXPECT_EQ(key->rank, expected->rank);
    ASSERT_TRUE(engine.step());
    ASSERT_TRUE(oracle.step());
  }
  EXPECT_FALSE(engine.next_live_key().has_value());
}

// Compaction while the lane holds live entries keeps them, in order, and
// the queue shrinks to exactly the live events.
TEST(EngineDiffTest, CompactionKeepsLiveLaneEntries) {
  Simulator engine;
  Trace fired;
  engine.set_trace_hook([&fired](SimTime t, std::uint64_t seq) {
    fired.emplace_back(t, seq);
  });
  for (int i = 0; i < 10; ++i) engine.schedule_after(SimTime::zero(), [] {});
  std::vector<EventHandle> doomed;
  for (int i = 0; i < 200; ++i)
    doomed.push_back(engine.schedule_after(SimTime::micros(1 + i % 7), [] {}));
  for (const EventHandle& h : doomed) ASSERT_TRUE(engine.cancel(h));
  EXPECT_EQ(engine.pending(), 10u);
  EXPECT_LT(engine.queue_size(), 100u);  // compacted at least once
  EXPECT_LE(engine.queue_size(), 2 * engine.pending() + 64);
  engine.validate_integrity();
  engine.run();
  ASSERT_EQ(fired.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(fired[i].first, SimTime::zero());
    EXPECT_EQ(fired[i].second, i + 1);
  }
}

}  // namespace
}  // namespace cloudlb
