#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lb/framework.h"
#include "runtime/chare.h"
#include "runtime/fault_hooks.h"
#include "runtime/message.h"
#include "runtime/network.h"
#include "runtime/observer.h"
#include "sim/simulator.h"
#include "util/shard_annotations.h"
#include "vm/virtual_machine.h"

namespace cloudlb {

class ShardedRuntimeHost;
class ShardPartition;

/// Runtime tuning for one job.
struct JobConfig {
  std::string name = "job";

  /// Iterations between AtSync barriers. Applications read this to decide
  /// when to call at_sync(); 0 disables periodic balancing entirely.
  int lb_period = 10;

  NetworkConfig network;

  /// Migration cost model: CPU to serialize/deserialize one byte of chare
  /// state on the source/destination PE (≈1 GB/s each by default), plus the
  /// network transfer of the serialized bytes.
  double pack_sec_per_byte = 1e-9;
  double unpack_sec_per_byte = 1e-9;

  /// CPU cost of running the LB framework itself (gather + decision +
  /// broadcast), charged to the master PE once per LB step — and thus
  /// stretched by whatever shares the master's core.
  SimTime lb_decision_overhead = SimTime::micros(200);

  /// Wall-clock latency of a full contribute/broadcast reduction cycle
  /// once the last chare has contributed (tree gather + broadcast).
  SimTime reduction_latency = SimTime::micros(250);

  /// Resolution of the host's idle-time counters as sampled for Eq. 2.
  /// Zero reads the exact fluid-model counters; the paper reads
  /// /proc/stat, whose jiffies tick every 10 ms — set that here to study
  /// the estimator under realistic quantization.
  SimTime proc_stat_quantum = SimTime::zero();

  /// Fault-injection hooks (non-owning; see src/faults/). Null — the
  /// default — leaves every fault path untaken and the run bit-identical
  /// to a build without the subsystem.
  FaultHooks* faults = nullptr;

  /// How often a failed migration attempt is retried before the chare is
  /// abandoned in place on its source PE. 0 (the default) abandons on the
  /// first failure; irrelevant without fault injection, since attempts
  /// then never fail.
  int migration_max_retries = 0;

  /// Backoff before the first migration retry; doubles per attempt
  /// (500 us, 1 ms, 2 ms, ... — bounding the barrier stall a flaky
  /// migration path can cause to max_retries doublings).
  SimTime migration_retry_backoff = SimTime::micros(500);
};

/// A parallel job under the message-driven runtime: a set of chares mapped
/// onto the PEs (one per vCPU of the job's VM), exchanging messages,
/// hitting periodic AtSync barriers at which a LoadBalancer strategy may
/// migrate chares.
///
/// This is the Charm++ substrate the paper's scheme plugs into: it keeps
/// the LB database (per-task CPU times), measures each PE's wall-clock
/// window and its host core's idle counter, and hands all of it to the
/// strategy as LbStats.
///
/// There is one implementation of every collective. All window-mutable
/// state (LB database, barrier counters, iteration tallies, task and
/// message counts) lives in a ShardPartition with one segment per shard
/// engine, and collective phases (AtSync cascades, reductions,
/// migrations, finish detection) run in exact global event order, with
/// burst continuations ranked by chare index. The constructor only picks
/// where the engines come from:
///
///  * on a Simulator, the job is a one-segment partition on that engine
///    and is never inside a window, so every collective completes at the
///    instant its last participant arrives;
///  * on a ShardedRuntimeHost, the job spans the host's shard engines,
///    each shard writes only its own segment during conservative windows,
///    and the host merges the segments at window barriers. Makespan,
///    migrations and energy are bit-identical to the one-segment job for
///    any shard and worker count.
class RuntimeJob {
 public:
  /// One-segment job on `sim`. The balancer may be the NullLb to
  /// reproduce the paper's "noLB" configuration.
  RuntimeJob(Simulator& sim, VirtualMachine& vm, JobConfig config,
             std::unique_ptr<LoadBalancer> balancer);

  /// Partitioned job: registers with `host` and is advanced by
  /// host.drive(). Observers need a one-shard host: with more shards they
  /// would be invoked out of global order, from window worker threads.
  RuntimeJob(ShardedRuntimeHost& host, VirtualMachine& vm, JobConfig config,
             std::unique_ptr<LoadBalancer> balancer);
  ~RuntimeJob();

  RuntimeJob(const RuntimeJob&) = delete;
  RuntimeJob& operator=(const RuntimeJob&) = delete;

  /// Registers a chare before start(); returns its id. Chares are assigned
  /// to PEs block-wise initially (chare i -> PE i·P/N), matching an even
  /// static decomposition.
  [[nodiscard]] ChareId add_chare(std::unique_ptr<Chare> chare);

  /// Starts the job at the current simulation time: anchors measurement
  /// windows and invokes every chare's on_start().
  CLB_BARRIER_PHASE void start();

  [[nodiscard]] bool started() const { return started_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] SimTime start_time() const { return start_time_; }
  /// Valid once finished(): time the last chare called finish().
  [[nodiscard]] SimTime finish_time() const;
  /// Wall-clock makespan (finish − start).
  [[nodiscard]] SimTime elapsed() const;

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] const JobConfig& config() const { return config_; }
  [[nodiscard]] int num_pes() const { return vm_.num_vcpus(); }
  [[nodiscard]] std::size_t num_chares() const { return chares_.size(); }
  [[nodiscard]] int lb_period() const { return config_.lb_period; }

  VirtualMachine& vm() { return vm_; }

  [[nodiscard]] PeId pe_of(ChareId chare) const;
  [[nodiscard]] CoreId core_of_pe(PeId pe) const { return vm_.core_of(pe); }
  Chare& chare(ChareId id);

  /// Completion times of fully-finished application iterations
  /// (index = iteration number as reported by chares). Stamped the
  /// instant the last chare reports; reports made inside a host window
  /// are merged at the end of drive().
  [[nodiscard]] const std::vector<SimTime>& iteration_times() const {
    return iteration_times_;
  }

  void set_observer(ExecutionObserver* observer) { observer_ = observer; }

  /// Aggregate counters, cumulative over the job's lifetime.
  struct Counters {
    std::int64_t tasks_executed = 0;
    std::int64_t messages_sent = 0;
    int lb_steps = 0;
    int migrations = 0;  ///< migrations decided by the balancer
    /// Bytes of those migrations, also counted at decision time: an
    /// attempt that later fails — even at the source, where nothing left
    /// the PE — keeps its bytes here. The retry/failure counters below
    /// say what became of the attempts; this is decided volume, not
    /// wire traffic.
    std::int64_t migrated_bytes = 0;
    int migration_retries = 0;   ///< failed attempts that were retried
    int migrations_failed = 0;   ///< abandoned after exhausting retries
  };
  /// By value: the window-local counters (tasks, messages) live in the
  /// partition segments and are merged on read.
  [[nodiscard]] Counters counters() const;

  /// Total CPU consumed by the job's PEs (from core accounting).
  [[nodiscard]] SimTime cpu_consumed() const;

  // --- Chare-facing API (called from Chare protected helpers). ---

  CLB_SHARD_CONFINED void send(ChareId from, ChareId to, int tag,
                               std::vector<double> data, std::size_t bytes);
  /// An empty payload from the free list of `chare`'s PE (see
  /// Chare::new_payload), or a fresh vector when the list is empty.
  CLB_SHARD_CONFINED std::vector<double> take_payload(ChareId chare);
  /// Returns `buffer`, cleared, to the free list of `chare`'s PE, unless
  /// it owns no storage, the list is full, or the PE has no buffers out.
  CLB_SHARD_CONFINED void recycle_payload(ChareId chare,
                                          std::vector<double> buffer);
  CLB_SHARD_CONFINED void at_sync(ChareId chare);
  CLB_SHARD_CONFINED void contribute(ChareId chare, double value);
  CLB_SHARD_CONFINED void chare_finished(ChareId chare);
  CLB_SHARD_CONFINED void report_iteration(ChareId chare, int iteration);

  // --- Host-facing protocol (host-built jobs; called by ShardedRuntimeHost
  // from the driving thread, never from inside a window). ---

  /// True when the job has collective state in motion that requires
  /// serialized global execution (an AtSync wave, an open reduction, a
  /// pending broadcast, an LB barrier, or a partial finish — the latter
  /// so the final finish instant, and with it the energy meter stop, is
  /// exact).
  [[nodiscard]] CLB_BARRIER_PHASE bool needs_global_phase() const;

  /// Barrier bookkeeping after each conservative window: recovers
  /// cascades that completed entirely inside the window (rewinding the
  /// shard clocks to the completion instant, or failing loudly when the
  /// window outran the cascade). O(shards).
  CLB_BARRIER_PHASE void merge_window_state();

  /// Merges the lazily-partitioned tallies (iteration times) after
  /// drive().
  CLB_BARRIER_PHASE void finalize_shard_state();

  /// Deep structural audit of the job (validation_enabled() gates the
  /// automatic call after every LB step; calling it directly is always
  /// allowed): the chare -> PE mapping is dense, in range, and agrees
  /// with every chare's identity (no chare lost, duplicated, or misowned),
  /// per-PE message queues route consistently, the barrier/migration
  /// state machine is quiescent, and the partition segments are mutually
  /// consistent (finish counts match the done flags, reduction counters
  /// match their contribution logs, and contribution times are monotone
  /// per shard). Throws CheckFailure on violation. Must not be called
  /// mid-window.
  CLB_BARRIER_PHASE void validate_invariants() const;

 private:
  friend struct RuntimeJobTestAccess;  ///< corruption seams for validator tests

  RuntimeJob(Simulator* sim, ShardedRuntimeHost* host, VirtualMachine& vm,
             JobConfig config, std::unique_ptr<LoadBalancer> balancer);

  /// Runtime-internal CPU work (migration pack/unpack) serialized per PE.
  struct ServiceItem {
    SimTime cpu;
    std::function<void()> done;
  };

  /// Cap on a PE's free list of payload vectors. The Jacobi2D PEs of the
  /// paper's Fig. 2 cell (16 blocks each) stop allocating at about 90
  /// buffers, which their ghost sends, ghost slots and compute messages
  /// cycle through every iteration. Sized by count, it suits small
  /// payloads only: a recycled buffer keeps the largest capacity it ever
  /// held, so Mol3D, whose ghost payloads carry a whole cell's positions,
  /// draws only its one-value compute messages from it and takes its
  /// received ghosts over instead (docs/applications.md).
  static constexpr std::size_t kMaxFreePayloads = 96;

  struct Pe {
    /// Messages waiting to run, oldest at queue[head]. A vector with a
    /// moving head rather than a deque: it keeps its capacity, so a warm
    /// queue never allocates (a deque allocates and frees a chunk every
    /// few messages).
    std::vector<Message> queue;
    std::size_t head = 0;
    /// The message whose task is running (valid while `executing`): the
    /// completion callback reads it here, so its capture stays small.
    Message current;
    bool executing = false;
    /// Cleared payload vectors of executed messages, handed out by
    /// take_payload (at most kMaxFreePayloads).
    std::vector<std::vector<double>> free_payloads;
    /// Buffers this PE's chares have drawn and the PE has not yet taken
    /// back. The free list takes a buffer back only against this count,
    /// so a PE whose chares never draw (AMPI) keeps no idle buffers, and
    /// one whose chares draw only small payloads (Mol3D's compute
    /// messages) keeps only small ones. A payload a handler took over
    /// (Chare::execute) comes back empty and is not counted.
    std::size_t payloads_out = 0;

    std::vector<double> take_payload() {
      ++payloads_out;
      if (free_payloads.empty()) return {};
      std::vector<double> payload = std::move(free_payloads.back());
      free_payloads.pop_back();
      return payload;
    }
    /// Keeps `buffer` for take_payload, or frees it.
    void recycle(std::vector<double> buffer) {
      if (buffer.capacity() == 0 || payloads_out == 0 ||
          free_payloads.size() >= kMaxFreePayloads)
        return;
      --payloads_out;
      buffer.clear();
      free_payloads.push_back(std::move(buffer));
    }
    std::deque<ServiceItem> services;
    bool service_active = false;
    // Measurement-window anchors for LbStats (reset after each LB step).
    SimTime window_start;
    SimTime idle_anchor;
  };

  // Mode plumbing: with the host-only hooks, the only code that knows
  // whether the job runs on a Simulator or on a ShardedRuntimeHost.
  [[nodiscard]] int shard_of_pe(PeId pe) const {
    return shard_of_pe_[static_cast<std::size_t>(pe)];
  }
  /// The engine that owns shard `shard` (the Simulator for every shard of
  /// a one-segment job).
  [[nodiscard]] EngineCore& engine_of_shard(int shard) const;
  [[nodiscard]] EngineCore& engine_of_pe(PeId pe) const {
    return engine_of_shard(shard_of_pe(pe));
  }
  /// True while the host runs a conservative window; never for a job
  /// built on a Simulator.
  [[nodiscard]] bool in_window() const;
  /// The current global instant: the Simulator's clock, or the host's
  /// global instant (meaningless as a per-shard clock inside a window).
  [[nodiscard]] SimTime global_now() const;
  /// The current instant as seen from PE `pe`'s context: its shard clock
  /// inside a window, the global instant otherwise.
  [[nodiscard]] SimTime ctx_now(PeId pe) const {
    return in_window() ? engine_of_pe(pe).now() : global_now();
  }
  /// Delivery routing: schedules `cb` at base + delay in the context of
  /// `to_pe`'s engine, through the host's windowed channel when a window
  /// is open and the PEs sit on different shards.
  CLB_SHARD_CONFINED void route_to(PeId from_pe, PeId to_pe, SimTime base,
                                   SimTime delay, EngineCore::Callback&& cb);

  CLB_SHARD_CONFINED void deliver(Message msg);
  /// Runs PE `pe`'s current task once its CPU demand is served.
  CLB_SHARD_CONFINED void finish_task(PeId pe, SimTime begin, SimTime cost);
  [[nodiscard]] SimTime sampled_idle_at(PeId pe, SimTime t) const;
  /// Delivery delay for `bytes` from src to dst core (delivery_delay).
  [[nodiscard]] SimTime network_delay(CoreId src, CoreId dst,
                                      std::size_t bytes) const;
  CLB_SHARD_CONFINED void start_next_task(PeId pe);
  void enqueue_service(PeId pe, SimTime cpu, std::function<void()> done);
  // Services execute in the owning PE's engine context whenever pumped
  // (post-task mid-window or at barriers), hence shard-confined.
  CLB_SHARD_CONFINED void push_service(PeId pe, SimTime cpu,
                                       std::function<void()> done);
  CLB_SHARD_CONFINED void pump_service(PeId pe);
  CLB_BARRIER_PHASE void run_lb_step();
  CLB_BARRIER_PHASE void begin_migrations(
      const std::vector<PeId>& new_assignment);
  CLB_BARRIER_PHASE void migrate_chare(ChareId chare, PeId from, PeId to);
  CLB_BARRIER_PHASE void attempt_migration(ChareId chare, PeId from, PeId to,
                                           int attempt);
  CLB_BARRIER_PHASE void retry_or_abandon(ChareId chare, PeId from, PeId to,
                                          int attempt);
  CLB_BARRIER_PHASE void migration_done();
  /// The post-LB resume burst: per-chare continuations ranked by chare
  /// index, so every shard count replays them in the same order.
  CLB_BARRIER_PHASE CLB_RANKED_FANOUT void resume_all();
  CLB_CANONICAL_COMBINE LbStats collect_stats() const;
  CLB_BARRIER_PHASE void reset_lb_window();

  // Collective-phase helpers (outside windows: global events, setup, or
  // the host's barrier bookkeeping).
  CLB_BARRIER_PHASE void maybe_complete_sync_wave(SimTime t);
  CLB_BARRIER_PHASE void maybe_complete_reduction(SimTime t);
  CLB_BARRIER_PHASE void begin_lb_barrier(SimTime t);
  /// Reduction broadcast fan-out: ranked like resume_all().
  CLB_BARRIER_PHASE CLB_RANKED_FANOUT void complete_reduction(SimTime t,
                                                              double result);
  CLB_BARRIER_PHASE void mark_finished(SimTime t);
  /// Merges iteration `it`'s per-shard tallies; stamps it when every
  /// chare has reported it.
  CLB_BARRIER_PHASE void merge_iteration(std::size_t it);
  /// Runs `fn` from the driving thread with every shard engine reporting
  /// `rank` as the executing event's (barrier recovery).
  CLB_BARRIER_PHASE void with_inherited_rank(std::uint64_t rank,
                                             const std::function<void()>& fn);

  Simulator* sim_ = nullptr;            ///< set when built on a Simulator
  ShardedRuntimeHost* host_ = nullptr;  ///< set when built on a host
  VirtualMachine& vm_;
  JobConfig config_;
  std::unique_ptr<LoadBalancer> balancer_;
  std::vector<std::unique_ptr<Chare>> chares_;
  /// One flag per chare. uint8_t, not vector<bool>: on a host each shard
  /// writes its own chares' flags during parallel windows, and a packed
  /// bitfield would make those writes race on shared words.
  CLB_SHARD_CONFINED std::vector<std::uint8_t> chare_done_;
  std::vector<PeId> assignment_;  ///< chare -> PE (stable during windows)
  CLB_SHARD_CONFINED std::vector<Pe> pes_;
  ExecutionObserver* observer_ = nullptr;

  bool started_ = false;
  bool finished_ = false;
  SimTime start_time_;
  SimTime finish_time_;

  bool lb_in_progress_ = false;
  int migrations_in_flight_ = 0;
  int broadcasts_pending_ = 0;  ///< reduction broadcast events in flight

  std::vector<SimTime> iteration_times_;

  Counters counters_;  ///< tasks and messages are counted in the segments

  std::unique_ptr<ShardPartition> part_;
  std::vector<int> shard_of_pe_;
};

}  // namespace cloudlb
