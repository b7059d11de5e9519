#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "machine/machine.h"
#include "sim/sharded_simulator.h"
#include "util/shard_annotations.h"
#include "util/sim_time.h"

namespace cloudlb {

class RuntimeJob;

/// The runtime driver behind every run_scenario call (one shard by
/// default). Owns a ShardedSimulator and the Machine whose nodes are
/// block-partitioned across its shards (node n -> shard n·S/N, contiguous
/// near-equal blocks), and advances registered RuntimeJobs by alternating
/// two execution regimes (docs/sharded-engine.md):
///
///  * **Windows** — while every job is in its compute phase, shards run
///    conservative lock-step windows (serially or on the worker team).
///    Jobs touch only their shard-local partition segments, so windows
///    are data-race free by construction. After each window the host
///    runs every job's barrier bookkeeping (merge_window_state), which
///    detects barrier waves.
///
///  * **Global phases** — the moment any job has collective state in
///    motion (an AtSync wave, an open reduction, a pending broadcast, a
///    partial finish), the host switches to ShardedSimulator::step_global
///    and executes events one at a time in canonical (time, shard, seq)
///    order on the driving thread. That regime is exactly a merged
///    single-engine execution: cross-shard reads are safe and every
///    timestamp — and hence every metric — is exact, which is what the
///    differential tier pins against a single Simulator
///    (tests/support/single_engine_scenario.h).
///
/// A cascade that starts *and* completes inside one window is recovered
/// by rewinding all shard clocks to the completion instant t* (legal
/// exactly when no shard executed anything after t*; the engines prove
/// it) and continuing from there in global order. When the rewind is
/// impossible — the window outran the cascade, i.e. the LB cadence is
/// shorter than the barrier window and other traffic kept running — the
/// run fails loudly rather than deliver an approximate timestamp.
class ShardedRuntimeHost {
 public:
  struct Config {
    int shards = 1;         ///< clamped to the machine's node count
    /// Window width = cross-shard lookahead; must lower-bound every
    /// cross-shard delivery latency (min_internode_delay of the jobs'
    /// network — see shard_window_width in runtime/network.h).
    SimTime window = SimTime::micros(60);
    bool parallel = false;  ///< run windows on a worker team (> 1 shard)
    int workers = 0;        ///< team size; <= 0 picks automatically
  };

  ShardedRuntimeHost(MachineConfig machine_config, Config config);
  ~ShardedRuntimeHost();

  ShardedRuntimeHost(const ShardedRuntimeHost&) = delete;
  ShardedRuntimeHost& operator=(const ShardedRuntimeHost&) = delete;

  [[nodiscard]] Machine& machine() { return machine_; }
  [[nodiscard]] ShardedSimulator& sharded() { return sharded_; }
  [[nodiscard]] const ShardedSimulator& sharded() const { return sharded_; }
  [[nodiscard]] int shards() const { return sharded_.shards(); }

  [[nodiscard]] int shard_of_node(int node) const;
  [[nodiscard]] int shard_of_core(CoreId core) const;
  [[nodiscard]] EngineCore& engine_of_shard(int shard) {
    return sharded_.shard_engine(shard);
  }
  [[nodiscard]] EngineCore& engine_of_node(int node) {
    return engine_of_shard(shard_of_node(node));
  }
  [[nodiscard]] EngineCore& engine_of_core(CoreId core) {
    return engine_of_shard(shard_of_core(core));
  }

  /// True while shards execute a conservative window (job callbacks then
  /// read time from their own shard's engine and must not touch foreign
  /// shards). False during global phases, setup and timed actions.
  [[nodiscard]] bool in_window() const { return in_window_; }

  /// The current global instant: the event time during a global phase,
  /// the action time inside a timed action, the last barrier otherwise.
  /// Meaningless as a per-shard clock while in_window().
  [[nodiscard]] SimTime global_now() const {
    return sharded_.now() > action_now_ ? sharded_.now() : action_now_;
  }

  /// Cross-shard send on the windowed channel (delegates to
  /// ShardedSimulator::post): delivery latency must be >= the window
  /// width when src != dst.
  CLB_SHARD_CONFINED void post(int src_shard, int dst_shard, SimTime latency,
                               EngineCore::Callback&& cb);

  /// Runs `fn` at global time `t` from the driving thread, ordered
  /// *before* any simulation event at the same instant (matching the
  /// legacy convention that setup-scheduled work precedes same-time
  /// application events). This is how scenarios start jobs mid-run.
  CLB_BARRIER_PHASE void schedule_action(SimTime t, std::function<void()> fn);

  /// Invoked from a global phase the moment a registered job finishes,
  /// with the exact finish instant (scenarios hang the power meter's
  /// stop_at here).
  void set_on_job_finished(std::function<void(RuntimeJob&)> fn) {
    on_job_finished_ = std::move(fn);
  }

  /// Registered automatically by the RuntimeJob sharded constructor.
  CLB_BARRIER_PHASE void register_job(RuntimeJob* job);

  /// Advances all jobs until every registered job has finished, or fails
  /// loudly at `max_events` (runaway guard). Must be called once, after
  /// setup, from the thread that built the host.
  CLB_BARRIER_PHASE void drive(std::uint64_t max_events);

  // --- Called back by RuntimeJob (host-internal protocol). ---

  /// Barrier recovery: make `t` the current global instant even though
  /// the last window ran past it. A no-op when t >= the barrier clock
  /// (the cascade completed in the future relative to the rewound
  /// clocks); otherwise every engine must prove it executed nothing
  /// after `t`, or the run fails loudly (LB cadence shorter than the
  /// window — see class comment).
  CLB_BARRIER_PHASE void recover_to(SimTime t);

  /// Exact-finish notification from a job's global phase.
  CLB_BARRIER_PHASE void note_job_finished(RuntimeJob& job);

  [[nodiscard]] std::uint64_t windows_run() const {
    return sharded_.windows_run();
  }
  [[nodiscard]] std::uint64_t global_steps() const {
    return sharded_.global_steps();
  }
  [[nodiscard]] std::uint64_t rewinds() const { return rewinds_; }

 private:
  struct TimedAction {
    SimTime t;
    std::uint64_t seq;  ///< insertion order breaks time ties
    std::function<void()> fn;
  };

  [[nodiscard]] bool all_jobs_finished() const;
  [[nodiscard]] bool any_job_needs_global() const;
  /// Index of the earliest pending action (t, seq), or -1.
  [[nodiscard]] int next_action() const;

  ShardedSimulator sharded_;
  Machine machine_;
  std::vector<RuntimeJob*> jobs_;
  std::vector<TimedAction> actions_;
  std::uint64_t action_seq_ = 0;
  SimTime action_now_;
  bool in_window_ = false;
  bool driving_ = false;
  std::uint64_t rewinds_ = 0;
  std::function<void(RuntimeJob&)> on_job_finished_;
};

}  // namespace cloudlb
