#pragma once

// Host-side tracing for the benchmark: in-memory spans, and a copy of the
// scenario drivers (core/scenario.cc) that records spans around the calls
// it makes into each layer and reads the engine counters that
// run_scenario does not return. The copy is built from the same public
// constructors in the same order, and the benchmark checks that its
// results equal run_penalty_experiment's bit for bit.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "lb/framework.h"
#include "runtime/job.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed interval on the host clock.
struct Span {
  std::string name;
  int experiment = 0;  ///< spans of one penalty experiment share this id
  int parent = -1;     ///< index into SpanLog::spans(); -1 for a root
  Clock::time_point start;
  Clock::time_point end;

  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(end - start).count();
  }
};

/// Spans kept in memory until the benchmark ends.
class SpanLog {
 public:
  /// Starts a new experiment id; later spans carry it.
  void next_experiment() { ++experiment_; }
  [[nodiscard]] int experiment() const { return experiment_; }

  /// Opens a span and returns its index.
  int begin(std::string name, int parent);
  void end(int span) {
    spans_[static_cast<std::size_t>(span)].end = Clock::now();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int experiment_ = 0;
};

/// One call into the application's balancer: what it saw and decided.
struct LbCall {
  cloudlb::LbStats stats;
  std::vector<cloudlb::PeId> assignment;
};

/// Everything one traced scenario run yields beyond its RunResult.
struct ScenarioTrace {
  cloudlb::RunResult result;  ///< bg-solo runs set only bg_elapsed
  bool sharded = false;       ///< ran on the ShardedRuntimeHost
  std::uint64_t events = 0;   ///< engine events executed (all shards)
  std::uint64_t windows = 0;  ///< conservative windows (sharded only)
  std::uint64_t global_steps = 0;
  std::uint64_t rewinds = 0;
  cloudlb::RuntimeJob::Counters jobs;  ///< summed over every job of the run
  std::vector<LbCall> lb_calls;        ///< application balancer, in order
  int mispredicted_windows = 0;        ///< from InterferenceAwareRefineLb
};

struct ExperimentTrace {
  cloudlb::PenaltyResult penalty;  ///< valid only for Stage::kRun
  std::vector<ScenarioTrace> scenarios;  ///< base, interfered[, bg-solo]
};

enum class Stage {
  kSetup,  ///< build every scenario up to its first event, then tear down
  kRun,    ///< build, drive to completion, tear down
};

/// run_penalty_experiment with spans: experiment -> scenario.{base,
/// interfered, bg-solo} -> {setup -> apps.populate, drive -> lb.assign,
/// teardown}. Supports the configurations the benchmark's workloads use;
/// throws CheckFailure for fault plans, delayed BG starts and tracers.
ExperimentTrace traced_penalty_experiment(const cloudlb::ScenarioConfig& config,
                                          SpanLog& log, Stage stage);

}  // namespace perfbench
