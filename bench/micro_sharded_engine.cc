// Microbenchmark: sharded parallel event engine vs the legacy serial
// engine (docs/sharded-engine.md), driven the way the runtime host drives
// it (shard_engine(s) scheduling, post(), and a next_event_time /
// run_one_window loop). Drives a synthetic message-passing
// workload — self-timed entities firing cross-entity messages — at
// 1k/10k/100k-entity shapes, and reports events/sec per shard count in
// serial and parallel window execution, plus a window-width sensitivity
// sweep (same workload, varying lookahead).
//
// --jobs N sets the worker-team size for the parallel rows (default 1;
// 0 = all hardware threads). Results are deterministic for every value;
// only the wall-clock changes.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <optional>

#include "bench_common.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"
#include "util/sim_time.h"

namespace {

using namespace cloudlb;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

struct Shape {
  const char* name;
  int entities;
  int ticks;
};

constexpr Shape kShapes[] = {
    {"1k", 1'000, 200},
    {"10k", 10'000, 50},
    {"100k", 100'000, 10},
};

/// Message latency floor — fixed across every run (including the window
/// sweep) so all configurations execute the identical event population.
constexpr SimTime kLatency = SimTime::micros(400);

struct Measured {
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  double wall_seconds = 0.0;
  double events_per_sec() const {
    return wall_seconds > 0.0 ? static_cast<double>(events) / wall_seconds
                              : 0.0;
  }
};

/// The workload on the sharded engine. Entities are block-partitioned
/// over shards; every tick posts to a hashed peer (cross-shard when the
/// peer lives elsewhere) and reschedules itself a hashed few us later.
struct ShardedWorkload {
  ShardedSimulator& sim;
  int entities;
  int ticks;

  int shard_of(int e) const { return e * sim.shards() / entities; }

  void tick(int e, int k) {
    const std::uint64_t h =
        mix64((static_cast<std::uint64_t>(e) << 20) ^
              static_cast<std::uint64_t>(k));
    const int peer =
        static_cast<int>(h % static_cast<std::uint64_t>(entities));
    if (peer != e) {
      sim.post(shard_of(e), shard_of(peer),
               kLatency + SimTime::nanos(static_cast<std::int64_t>(h % 2000)),
               [] {});
    }
    if (k + 1 < ticks) {
      sim.shard_engine(shard_of(e))
          .schedule_after(
              SimTime::nanos(2000 + static_cast<std::int64_t>(h % 8000)),
              [this, e, k] { tick(e, k + 1); });
    }
  }

  void start() {
    for (int e = 0; e < entities; ++e)
      sim.shard_engine(shard_of(e))
          .schedule_at(SimTime::nanos(100 + 13 * e),
                       [this, e] { tick(e, 0); });
  }
};

Measured run_sharded(const Shape& shape, int shards, bool parallel,
                     int workers, SimTime lookahead) {
  ShardedSimulator::Config cfg;
  cfg.shards = shards;
  cfg.lookahead = lookahead;
  cfg.parallel = parallel;
  cfg.workers = workers;
  ShardedSimulator sim{cfg};
  sim.reserve(static_cast<std::size_t>(shape.entities / shards + 64),
              static_cast<std::size_t>(shape.entities / shards + 64));
  ShardedWorkload w{sim, shape.entities, shape.ticks};
  w.start();
  const auto begin = std::chrono::steady_clock::now();
  while (sim.next_event_time()) sim.run_one_window(std::nullopt);
  const auto end = std::chrono::steady_clock::now();
  Measured m;
  m.events = sim.executed();
  m.windows = sim.windows_run();
  m.wall_seconds = std::chrono::duration<double>(end - begin).count();
  return m;
}

/// Same workload on the legacy engine — the no-shard reference.
struct LegacyWorkload {
  Simulator& sim;
  int entities;
  int ticks;

  void tick(int e, int k) {
    const std::uint64_t h =
        mix64((static_cast<std::uint64_t>(e) << 20) ^
              static_cast<std::uint64_t>(k));
    const int peer =
        static_cast<int>(h % static_cast<std::uint64_t>(entities));
    if (peer != e) {
      sim.schedule_after(
          kLatency + SimTime::nanos(static_cast<std::int64_t>(h % 2000)),
          [] {});
    }
    if (k + 1 < ticks) {
      sim.schedule_after(
          SimTime::nanos(2000 + static_cast<std::int64_t>(h % 8000)),
          [this, e, k] { tick(e, k + 1); });
    }
  }
};

Measured run_legacy(const Shape& shape) {
  Simulator sim;
  sim.reserve(static_cast<std::size_t>(shape.entities + 64),
              static_cast<std::size_t>(shape.entities + 64));
  LegacyWorkload w{sim, shape.entities, shape.ticks};
  for (int e = 0; e < shape.entities; ++e)
    sim.schedule_at(SimTime::nanos(100 + 13 * e), [&w, e] { w.tick(e, 0); });
  const auto begin = std::chrono::steady_clock::now();
  sim.run();
  const auto end = std::chrono::steady_clock::now();
  Measured m;
  m.events = sim.executed();
  m.wall_seconds = std::chrono::duration<double>(end - begin).count();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cloudlb;
  using namespace cloudlb::bench;

  const int jobs = parse_jobs(argc, argv);
  const SimTime lookahead = SimTime::micros(50);
  std::cout << "Sharded engine microbenchmark (lookahead "
            << lookahead.to_string() << ", --jobs " << jobs << ")\n\n";

  Table table({"shape", "config", "events", "windows", "wall ms",
               "events/sec", "vs legacy"});
  for (const Shape& shape : kShapes) {
    const Measured legacy = run_legacy(shape);
    table.add_row({shape.name, "legacy serial engine",
                   std::to_string(legacy.events), "-",
                   Table::num(legacy.wall_seconds * 1e3, 1),
                   Table::num(legacy.events_per_sec() / 1e6, 2) + "M",
                   Table::num(1.0, 2)});
    for (const int shards : {1, 2, 4, 8}) {
      const Measured m =
          run_sharded(shape, shards, /*parallel=*/false, 1, lookahead);
      table.add_row(
          {shape.name, std::to_string(shards) + " shard(s), serial",
           std::to_string(m.events), std::to_string(m.windows),
           Table::num(m.wall_seconds * 1e3, 1),
           Table::num(m.events_per_sec() / 1e6, 2) + "M",
           Table::num(m.events_per_sec() / legacy.events_per_sec(), 2)});
    }
    for (const int shards : {4, 8}) {
      const Measured m =
          run_sharded(shape, shards, /*parallel=*/true, jobs, lookahead);
      table.add_row(
          {shape.name,
           std::to_string(shards) + " shard(s), parallel x" +
               std::to_string(jobs),
           std::to_string(m.events), std::to_string(m.windows),
           Table::num(m.wall_seconds * 1e3, 1),
           Table::num(m.events_per_sec() / 1e6, 2) + "M",
           Table::num(m.events_per_sec() / legacy.events_per_sec(), 2)});
    }
  }
  emit(table, "events/sec by shard count");

  // Window-width sensitivity: identical workload (the message latency
  // floor stays at kLatency), only the barrier cadence varies. Narrow
  // windows buy nothing here but barrier overhead; the sweet spot is the
  // largest width the latency floor admits.
  Table sweep({"shape", "shards", "lookahead (us)", "windows",
               "events/window", "wall ms", "events/sec"});
  const Shape& shape = kShapes[1];  // 10k
  for (const std::int64_t mult : {1, 2, 4, 8}) {
    const SimTime width = lookahead * mult;
    const Measured m =
        run_sharded(shape, 4, /*parallel=*/false, 1, width);
    sweep.add_row(
        {shape.name, "4", std::to_string(width.ns() / 1000),
         std::to_string(m.windows),
         std::to_string(m.windows > 0 ? m.events / m.windows : 0),
         Table::num(m.wall_seconds * 1e3, 1),
         Table::num(m.events_per_sec() / 1e6, 2) + "M"});
  }
  emit(sweep, "window-width sensitivity (10k entities, 4 shards)");

  std::cout << "On a single-core host the parallel rows measure window "
               "overhead, not speedup;\nsee bench/RESULTS_sharded.md for "
               "the full reading.\n";
  return 0;
}
