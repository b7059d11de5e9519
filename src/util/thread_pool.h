#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "util/function_ref.h"
#include "util/shard_annotations.h"

namespace cloudlb {

/// Number of concurrent hardware threads, at least 1.
[[nodiscard]] int hardware_jobs();

/// RAII group of worker threads.
///
/// Shutdown hardening: the destructor always joins every spawned worker —
/// including when the scope unwinds because a task threw (CheckFailure
/// from a CLB_CHECK inside a parallel region) or because spawn() itself
/// failed partway through launching a fleet. Without this, an exception
/// between thread creation and the explicit join would destroy a joinable
/// std::thread and terminate the process.
class ThreadPool {
 public:
  ThreadPool() = default;
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  ~ThreadPool() { join_all(); }

  /// Launches one worker running `body`. Exceptions escaping `body` are
  /// the caller's contract to prevent (parallel_for routes them through
  /// its error latch); std::system_error from thread creation propagates
  /// to the caller, with already-running workers still joined on unwind.
  template <typename F>
  void spawn(F&& body) {
    threads_.emplace_back(std::forward<F>(body));
  }

  /// Joins every worker spawned so far. Idempotent; also run on
  /// destruction.
  void join_all() noexcept {
    for (std::thread& t : threads_)
      if (t.joinable()) t.join();
    threads_.clear();
  }

  [[nodiscard]] std::size_t size() const { return threads_.size(); }

 private:
  std::vector<std::thread> threads_;
};

/// Runs `fn(i)` for every i in [0, n) across up to `jobs` OS threads
/// (jobs <= 0 means hardware_jobs(); jobs == 1 runs inline).
///
/// Scheduling is deliberately minimal — no work stealing, no per-worker
/// deques, no persistent pool: workers claim `chunk` consecutive indices
/// at a time from one shared atomic cursor and exit when it runs past n.
/// The intended workload is a grid of independent scenario cells, where
/// each index is milliseconds-to-seconds of simulation: a single
/// fetch_add per chunk is already invisible next to the work, and the
/// flat structure keeps the execution order irrelevant to the results
/// (every cell owns its private Simulator/Machine/RNG, seeded from the
/// cell's own configuration — see DESIGN.md on seeding discipline).
///
/// Worker threads are spawned per call and joined before returning; the
/// calling thread participates as a worker. If any invocation throws, the
/// first exception (in completion order) is rethrown on the caller after
/// all workers have drained, and remaining unclaimed indices are skipped.
CLB_SHARD_CONFINED void parallel_for(std::size_t n, int jobs,
                                     const std::function<void(std::size_t)>& fn,
                                     std::size_t chunk = 1);

/// A persistent team of workers advancing in caller-driven lock-step
/// rounds — the barrier primitive under the sharded engine's conservative
/// time windows (docs/sharded-engine.md). Where parallel_for spawns and
/// joins threads per call (fine for millisecond-scale grid cells, fatal
/// for a window loop that runs thousands of rounds), a WorkerTeam spawns
/// its workers once and reuses them: each run_round(fn) runs fn(worker)
/// on every worker concurrently and returns once all have finished.
///
/// Memory ordering: the barrier is a full happens-before edge in both
/// directions — a round's closure sees everything the caller wrote before
/// run_round(), and the caller (and every later round) sees everything
/// the round wrote. Exceptions thrown inside fn are captured per worker
/// and the first (by worker index, a deterministic choice) is rethrown on
/// the caller after the whole round has drained, so workers are never
/// abandoned mid-round.
class WorkerTeam {
 public:
  /// Spawns `workers` (>= 1) threads, idle until the first round.
  explicit WorkerTeam(int workers);
  ~WorkerTeam();  ///< signals shutdown and joins every worker

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size());
  }

  /// Runs fn(w) for every worker index w in [0, workers()) concurrently;
  /// blocks until all invocations return. Not reentrant: only the owning
  /// thread drives rounds, one at a time. The closure is borrowed, not
  /// owned (FunctionRef): it lives on the caller's frame for the whole
  /// round, so handing a round to the team never allocates. It runs
  /// once per conservative window (SimAllocTest pins it at zero
  /// allocations).
  CLB_SHARD_CONFINED void run_round(FunctionRef<void(int)> fn);

 private:
  void worker_main(int index);

  std::mutex mu_;
  std::condition_variable start_cv_;  ///< workers wait for a new round
  std::condition_variable done_cv_;   ///< the caller waits for completion
  std::optional<FunctionRef<void(int)>> task_;  ///< borrowed for one round
  std::uint64_t round_ = 0;  ///< bumped per round; workers chase it
  int running_ = 0;          ///< workers still inside the current round
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  ///< one slot per worker
  std::vector<std::thread> threads_;
};

/// parallel_for that collects `fn(i)` into a vector in index order —
/// results are positioned by index, never by completion, so the output
/// is bit-identical for every `jobs` value. T must be default- and
/// move-constructible.
template <typename T>
[[nodiscard]] CLB_SHARD_CONFINED std::vector<T> parallel_map(
    std::size_t n, int jobs, const std::function<T(std::size_t)>& fn) {
  std::vector<T> out(n);
  parallel_for(n, jobs, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace cloudlb
