// Tests for the sharded parallel discrete-event engine
// (src/sim/sharded_simulator.h).
//
// The load-bearing claim is determinism: an order-insensitive workload
// must produce the same canonical execution record on the legacy
// Simulator, on a ShardedSimulator at every shard count, and in both
// serial and parallel window execution — and at one shard the merged
// engine trace must be *bitwise* identical to the legacy engine's.
// A 64-seed property grid (faults_test pattern; shift the worlds with
// CLOUDLB_SHARD_SEED_BASE) pins message conservation: nothing lost,
// nothing duplicated, per-channel FIFO preserved across shard barriers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/sim_time.h"

namespace cloudlb {
namespace {

constexpr SimTime kLookahead = SimTime::micros(50);

/// Deterministic stateless mixer — the only randomness source here, so
/// every draw is a pure function of (entity, tick, salt) and cannot
/// depend on execution interleaving.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::uint64_t draw(std::uint64_t salt, int entity, int tick) {
  return mix64(salt ^ (static_cast<std::uint64_t>(entity) << 32) ^
               static_cast<std::uint64_t>(tick));
}

// ------------------------------------------------------------------
// Order-insensitive harness workload.
//
// Entities tick on self-driven timelines (absolute times precomputed
// from pure hashes), log a record per tick, and fire messages at hashed
// peers with latency >= kLookahead. Handlers touch only entity-local
// state, so the *multiset* of (time, entity, payload) records is an
// engine invariant: any conforming engine — legacy, sharded-serial,
// sharded-parallel, any shard count — must reproduce it exactly.

struct HarnessRecord {
  std::int64_t t;
  int entity;
  std::uint64_t payload;
};

struct Harness {
  int entities = 24;
  int ticks = 12;
  /// schedule(entity, absolute time, fn)
  std::function<void(int, SimTime, std::function<void()>)> schedule;
  /// post(src entity, dst entity, latency, fn)
  std::function<void(int, int, SimTime, std::function<void()>)> post;
  /// now(entity) — the clock of the engine executing this entity
  std::function<SimTime(int)> now;
  /// One log per entity: handlers only append to their own, which keeps
  /// parallel window execution race-free by construction.
  std::vector<std::vector<HarnessRecord>> logs;

  static SimTime tick_time(int e, int k) {
    return SimTime::nanos(1000 + 137 * e + 20000 * k +
                          static_cast<std::int64_t>(draw(0x11, e, k) % 3001));
  }

  void start() {
    logs.assign(static_cast<std::size_t>(entities), {});
    for (int e = 0; e < entities; ++e)
      schedule(e, tick_time(e, 0), [this, e] { tick(e, 0); });
  }

  void tick(int e, int k) {
    const std::uint64_t payload = draw(0x22, e, k);
    logs[static_cast<std::size_t>(e)].push_back(
        HarnessRecord{now(e).ns(), e, payload});
    const int peer = static_cast<int>(draw(0x33, e, k) %
                                      static_cast<std::uint64_t>(entities));
    if (peer != e) {
      const SimTime latency =
          kLookahead +
          SimTime::nanos(static_cast<std::int64_t>(draw(0x44, e, k) % 5000));
      post(e, peer, latency, [this, peer, payload] {
        logs[static_cast<std::size_t>(peer)].push_back(
            HarnessRecord{now(peer).ns(), peer, payload ^ 0xd00dfeedull});
      });
    }
    if (k + 1 < ticks)
      schedule(e, tick_time(e, k + 1), [this, e, k] { tick(e, k + 1); });
  }

  /// FNV-1a over the canonically sorted record multiset.
  std::uint64_t digest() const {
    std::vector<HarnessRecord> all;
    for (const auto& log : logs) all.insert(all.end(), log.begin(), log.end());
    std::sort(all.begin(), all.end(),
              [](const HarnessRecord& a, const HarnessRecord& b) {
                if (a.t != b.t) return a.t < b.t;
                if (a.entity != b.entity) return a.entity < b.entity;
                return a.payload < b.payload;
              });
    std::uint64_t d = 1469598103934665603ull;
    const auto fnv = [&d](std::uint64_t word) {
      for (int b = 0; b < 8; ++b) {
        d ^= (word >> (8 * b)) & 0xffu;
        d *= 1099511628211ull;
      }
    };
    for (const HarnessRecord& r : all) {
      fnv(static_cast<std::uint64_t>(r.t));
      fnv(static_cast<std::uint64_t>(r.entity));
      fnv(r.payload);
    }
    return d;
  }
};

std::uint64_t legacy_harness_digest() {
  Simulator sim;
  Harness h;
  h.schedule = [&sim](int, SimTime t, std::function<void()> fn) {
    sim.schedule_at(t, std::move(fn));
  };
  h.post = [&sim](int, int, SimTime latency, std::function<void()> fn) {
    sim.schedule_after(latency, std::move(fn));
  };
  h.now = [&sim](int) { return sim.now(); };
  h.start();
  sim.run();
  return h.digest();
}

std::uint64_t sharded_harness_digest(int shards, bool parallel) {
  ShardedSimulator::Config cfg;
  cfg.shards = shards;
  cfg.lookahead = kLookahead;
  cfg.parallel = parallel;
  cfg.workers = 4;  // oversubscription must not matter either
  ShardedSimulator sim{cfg};
  Harness h;
  const auto shard_of = [&h, shards](int e) { return e * shards / h.entities; };
  h.schedule = [&](int e, SimTime t, std::function<void()> fn) {
    sim.schedule_at(shard_of(e), t, std::move(fn));
  };
  h.post = [&](int src, int dst, SimTime latency, std::function<void()> fn) {
    sim.post(shard_of(src), shard_of(dst), latency, std::move(fn));
  };
  h.now = [&](int e) { return sim.shard_engine(shard_of(e)).now(); };
  h.start();
  sim.run();
  EXPECT_EQ(sim.cross_posts(), sim.cross_delivered());
  EXPECT_EQ(sim.pending(), 0u);
  return h.digest();
}

// The headline invariant: one workload, one answer — regardless of how
// the event space is sharded or whether windows run on worker threads.
TEST(ShardedSimTest, HarnessDigestIsEngineInvariant) {
  const std::uint64_t reference = legacy_harness_digest();
  ASSERT_NE(reference, 0u);
  for (const int shards : {1, 2, 4, 7}) {
    EXPECT_EQ(sharded_harness_digest(shards, /*parallel=*/false), reference)
        << "serial mode diverged at " << shards << " shards";
    EXPECT_EQ(sharded_harness_digest(shards, /*parallel=*/true), reference)
        << "parallel mode diverged at " << shards << " shards";
  }
}

// At one shard the sharded engine *is* the legacy engine plus a merge
// that has nothing to merge: the (time, seq) trace must match bitwise.
TEST(ShardedSimTest, SingleShardTraceIsBitwiseLegacy) {
  std::vector<std::pair<std::int64_t, std::uint64_t>> legacy_trace;
  {
    Simulator sim;
    sim.set_trace_hook([&legacy_trace](SimTime t, std::uint64_t seq) {
      legacy_trace.emplace_back(t.ns(), seq);
    });
    Harness h;
    h.schedule = [&sim](int, SimTime t, std::function<void()> fn) {
      sim.schedule_at(t, std::move(fn));
    };
    h.post = [&sim](int, int, SimTime latency, std::function<void()> fn) {
      sim.schedule_after(latency, std::move(fn));
    };
    h.now = [&sim](int) { return sim.now(); };
    h.start();
    sim.run();
  }

  std::vector<std::pair<std::int64_t, std::uint64_t>> sharded_trace;
  {
    ShardedSimulator::Config cfg;
    cfg.shards = 1;
    cfg.lookahead = kLookahead;
    ShardedSimulator sim{cfg};
    sim.set_trace_hook(
        [&sharded_trace](SimTime t, int shard, std::uint64_t seq) {
          EXPECT_EQ(shard, 0);
          sharded_trace.emplace_back(t.ns(), seq);
        });
    Harness h;
    h.schedule = [&sim](int, SimTime t, std::function<void()> fn) {
      sim.schedule_at(0, t, std::move(fn));
    };
    h.post = [&sim](int, int, SimTime latency, std::function<void()> fn) {
      sim.post(0, 0, latency, std::move(fn));
    };
    h.now = [&sim](int) { return sim.shard_engine(0).now(); };
    h.start();
    sim.run();
  }

  ASSERT_FALSE(legacy_trace.empty());
  EXPECT_EQ(sharded_trace, legacy_trace);
}

// ------------------------------------------------------------------
// Direct engine semantics.

TEST(ShardedSimTest, WindowClockAdvancesOnBarriers) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.lookahead = SimTime::micros(60);
  ShardedSimulator sim{cfg};
  int fired = 0;
  sim.schedule_at(0, SimTime::micros(10), [&fired] { ++fired; });
  sim.schedule_at(1, SimTime::micros(100), [&fired] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.executed(), 2u);
  EXPECT_GE(sim.windows_run(), 2u);
  // run() leaves the clock at the last window barrier it closed.
  EXPECT_EQ(sim.now(), SimTime::micros(120));
}

TEST(ShardedSimTest, RunUntilStopsInclusivelyAndKeepsMailInFlight) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.lookahead = kLookahead;
  ShardedSimulator sim{cfg};
  int local = 0;
  int remote = 0;
  sim.schedule_at(0, SimTime::micros(10), [&] {
    ++local;
    // In flight across the cutoff below: posted at 10us, due at 110us.
    sim.post(0, 1, SimTime::micros(100), [&remote] { ++remote; });
  });
  sim.schedule_at(1, SimTime::micros(40), [&local] { ++local; });

  sim.run_until(SimTime::micros(40));  // inclusive of the 40us event
  EXPECT_EQ(local, 2);
  EXPECT_EQ(remote, 0);
  EXPECT_EQ(sim.now(), SimTime::micros(40));
  EXPECT_EQ(sim.cross_posts(), 1u);
  EXPECT_EQ(sim.pending(), 1u);  // the buffered envelope

  sim.run();
  EXPECT_EQ(remote, 1);
  EXPECT_EQ(sim.cross_delivered(), 1u);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(ShardedSimTest, CancelOnOwningShardWorks) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.lookahead = kLookahead;
  ShardedSimulator sim{cfg};
  bool fired = false;
  const ShardEventHandle doomed =
      sim.schedule_at(1, SimTime::micros(30), [&fired] { fired = true; });
  EXPECT_TRUE(sim.cancel(doomed));   // between windows: always legal
  EXPECT_FALSE(sim.cancel(doomed));  // spent handle
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(ShardedSimTest, CrossShardCancelDuringWindowFailsLoudly) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.lookahead = SimTime::micros(60);
  ShardedSimulator sim{cfg};
  // Shard 1's event is far away; shard 0's callback (shard 0 executes
  // first within the window) reaches across the boundary mid-window.
  const ShardEventHandle foreign =
      sim.schedule_at(1, SimTime::micros(500), [] {});
  sim.schedule_at(0, SimTime::micros(10), [&sim, foreign] {
    static_cast<void>(sim.cancel(foreign));
  });
  EXPECT_THROW(sim.run(), CheckFailure);
}

TEST(ShardedSimTest, CrossShardPostBelowLookaheadIsRejected) {
  ShardedSimulator::Config cfg;
  cfg.shards = 2;
  cfg.lookahead = SimTime::micros(60);
  ShardedSimulator sim{cfg};
  // 10us < the 60us lookahead: delivering it could pierce a window.
  EXPECT_THROW(sim.post(0, 1, SimTime::micros(10), [] {}), CheckFailure);
  // Same latency within a shard is fine — no window to pierce.
  sim.post(0, 0, SimTime::micros(10), [] {});
  sim.run();
}

TEST(ShardedSimTest, ReserveForwardsToEveryShard) {
  ShardedSimulator::Config cfg;
  cfg.shards = 3;
  cfg.lookahead = kLookahead;
  ShardedSimulator sim{cfg};
  sim.reserve(64, 64);
  for (int s = 0; s < 3; ++s)
    sim.schedule_at(s, SimTime::micros(s + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.executed(), 3u);
  sim.validate_integrity();
}

TEST(ShardedSimTest, WorkerExceptionsSurfaceInParallelMode) {
  ShardedSimulator::Config cfg;
  cfg.shards = 4;
  cfg.lookahead = kLookahead;
  cfg.parallel = true;
  ShardedSimulator sim{cfg};
  EXPECT_TRUE(sim.parallel());
  EXPECT_GE(sim.workers(), 1);
  sim.schedule_at(2, SimTime::micros(5), [] {
    CLB_CHECK_MSG(false, "deliberate failure inside a window");
  });
  EXPECT_THROW(sim.run(), CheckFailure);
}

// ------------------------------------------------------------------
// 64-seed property grid: message conservation across shard boundaries.
//
// Each world drives a random cross-shard traffic pattern with constant
// per-post latency (= lookahead), so each (src, dst) channel must be
// received in exact send order (FIFO), with nothing lost or duplicated
// — and the parallel receive log must equal the serial one bitwise.

std::uint64_t shard_seed_base() {
  const char* env = std::getenv("CLOUDLB_SHARD_SEED_BASE");
  return env != nullptr ? std::strtoull(env, nullptr, 10) : 1;
}

struct TrafficWorld {
  using Channel = std::pair<int, int>;
  std::map<Channel, std::vector<std::uint64_t>> sent;
  std::map<Channel, std::vector<std::uint64_t>> received;
};

/// Runs one random world; returns the per-channel send/receive logs.
TrafficWorld run_traffic_world(std::uint64_t seed, bool parallel) {
  const int shards = 2 + static_cast<int>(mix64(seed) % 5);  // 2..6
  const int rounds = 4 + static_cast<int>(mix64(seed ^ 1) % 5);
  ShardedSimulator::Config cfg;
  cfg.shards = shards;
  cfg.lookahead = kLookahead;
  cfg.parallel = parallel;
  ShardedSimulator sim{cfg};

  // Every channel entry is created up front, before the engine starts:
  // during the run, handlers only push_back into existing vectors. A
  // channel's send log is appended only by its source shard and its
  // receive log only by its destination shard, so parallel workers never
  // share a vector — and the pre-built map never rebalances under them.
  TrafficWorld world;
  TrafficWorld* w = &world;
  for (int s = 0; s < shards; ++s)
    for (int d = 0; d < shards; ++d)
      if (s != d) {
        world.sent[{s, d}];
        world.received[{s, d}];
      }

  // Each shard ticks `rounds` times at hashed offsets; every tick posts
  // to a hashed peer shard with constant latency, so per-channel receive
  // order must equal send order exactly.
  std::function<void(int, int)> tick = [&sim, w, seed, rounds, shards,
                                        &tick](int s, int k) {
    const std::uint64_t id = mix64(seed ^ draw(0x55, s, k));
    const int dst = static_cast<int>(draw(seed, s, k) %
                                     static_cast<std::uint64_t>(shards));
    if (dst != s) {
      w->sent[{s, dst}].push_back(id);
      sim.post(s, dst, kLookahead, [w, s, dst, id] {
        w->received[{s, dst}].push_back(id);
      });
    }
    if (k + 1 < rounds) {
      sim.schedule_after(
          s,
          SimTime::nanos(15000 +
                         static_cast<std::int64_t>(draw(0x66, s, k) % 9000)),
          [s, k, &tick] { tick(s, k + 1); });
    }
  };
  for (int s = 0; s < shards; ++s) {
    const int shard = s;
    sim.schedule_at(shard, SimTime::nanos(100 + 31 * shard),
                    [shard, &tick] { tick(shard, 0); });
  }
  sim.run();
  std::uint64_t total_sent = 0;
  for (const auto& [channel, ids] : world.sent) total_sent += ids.size();
  EXPECT_EQ(sim.cross_posts(), total_sent);
  EXPECT_EQ(sim.cross_delivered(), total_sent);
  EXPECT_EQ(sim.pending(), 0u);
  return world;
}

TEST(ShardedSimPropertyTest, NoMessageLostDuplicatedOrReordered) {
  const std::uint64_t base = shard_seed_base();
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t seed = base * 1000 + i;
    const TrafficWorld serial = run_traffic_world(seed, /*parallel=*/false);
    // Conservation + FIFO against the send log.
    EXPECT_EQ(serial.received, serial.sent) << "world " << seed;
    const TrafficWorld par = run_traffic_world(seed, /*parallel=*/true);
    EXPECT_EQ(par.received, serial.received) << "world " << seed;
    EXPECT_EQ(par.sent, serial.sent) << "world " << seed;
  }
}

}  // namespace
}  // namespace cloudlb
