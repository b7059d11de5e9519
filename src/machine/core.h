#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine_core.h"
#include "util/sim_time.h"

namespace cloudlb {

using CoreId = std::int32_t;
using ContextId = std::int32_t;

/// Snapshot of a core's cumulative CPU accounting — the simulated
/// equivalent of one row of `/proc/stat`, which the paper's background-load
/// estimator samples (Eq. 2 reads the idle counter).
struct ProcStat {
  SimTime busy;  ///< time the core spent executing any context
  SimTime idle;  ///< time the core spent with no runnable context
};

/// One physical CPU core, modelled as a weighted fluid processor-sharing
/// server.
///
/// Schedulable entities (the app's processing element, an interfering VM's
/// vCPU, ...) register as *contexts*. When k contexts are runnable, context
/// i progresses at `speed · w_i / Σw` — the fluid limit of an OS
/// time-slicer, which is exactly the interference mechanism the paper
/// studies (two co-located vCPUs halving each other's speed).
///
/// The core keeps full CPU-time accounting: cumulative busy/idle time and
/// per-context consumed CPU time, all exact under the fluid model. The
/// `/proc/stat` substitute (`proc_stat()`), the LB database and the power
/// model all read from this accounting.
class Core {
 public:
  /// `speed` scales CPU consumption: a demand of 1 CPU-second completes in
  /// 1/speed wall seconds on an otherwise idle core. The engine is the
  /// core's event clock: in the legacy runtime it is the one `Simulator`,
  /// in the sharded runtime it is the `EngineCore` of the shard that owns
  /// this core's node (docs/sharded-engine.md).
  Core(EngineCore& sim, CoreId id, double speed = 1.0);

  Core(const Core&) = delete;
  Core& operator=(const Core&) = delete;

  CoreId id() const { return id_; }
  double speed() const { return speed_; }

  /// Registers a schedulable context with the given scheduler weight
  /// (relative CPU share when competing; 1.0 = normal).
  ContextId register_context(std::string name, double weight = 1.0);

  /// Adjusts a context's scheduler weight (its "niceness").
  void set_weight(ContextId ctx, double weight);

  const std::string& context_name(ContextId ctx) const;

  /// Requests that `ctx` consume `cpu_time` of CPU, then invokes
  /// `on_complete`. At most one outstanding demand per context: a PE
  /// serializes its task executions. Zero demands complete via an
  /// immediately-scheduled event (still ordered deterministically).
  /// `on_complete` is an engine callback, so a capture that fits its
  /// inline buffer moves from here to the completion event without
  /// touching the heap.
  void demand(ContextId ctx, SimTime cpu_time,
              EngineCore::Callback&& on_complete);

  /// Whether `ctx` currently has an unfinished demand.
  bool has_demand(ContextId ctx) const;

  /// Number of currently runnable contexts.
  std::size_t runnable() const { return active_.size(); }

  // --- Accounting (all cumulative since t = 0, exact to the fluid model).

  /// Busy/idle counters as an OS would expose them.
  ProcStat proc_stat() const;

  /// Busy/idle counters extrapolated to `t` >= the engine clock. Exact —
  /// not an estimate — because between events the fluid shares are
  /// constant: nothing about the active set can change before the
  /// engine's next pending event fires. The caller must therefore
  /// guarantee `t` does not pass that event (the sharded runtime's
  /// global-order stepping does, by construction). `proc_stat()` is the
  /// `t == now` case.
  ProcStat proc_stat_at(SimTime t) const;

  /// Total CPU time consumed by one context so far.
  SimTime context_cpu_time(ContextId ctx) const;

  /// Per-context consumption extrapolated to `t`, under the same contract
  /// as proc_stat_at.
  SimTime context_cpu_time_at(ContextId ctx, SimTime t) const;

  std::size_t num_contexts() const { return contexts_.size(); }

 private:
  struct ContextInfo {
    std::string name;
    double weight = 1.0;
    double consumed_cpu_sec = 0.0;  ///< cumulative
  };
  struct Request {
    ContextId ctx = 0;
    double remaining_cpu_sec = 0.0;
    EngineCore::Callback on_complete;
  };

  /// Accrues CPU consumption from `last_update_` to now, updating
  /// per-context counters and busy time. Does not fire completions.
  void advance_to_now();

  /// Fires callbacks for all requests that have run dry, then reschedules
  /// the next completion event.
  void complete_and_reschedule();

  double total_active_weight() const;

  /// The active request of `ctx`, or null.
  const Request* find_active(ContextId ctx) const;

  EngineCore& sim_;
  CoreId id_;
  double speed_;
  std::vector<ContextInfo> contexts_;
  /// The runnable contexts' requests, kept sorted by ContextId so every
  /// iteration below (FP share sums, the completion scan) visits contexts
  /// in one platform-independent order — an unordered container here
  /// would make the trace digest depend on the standard library's
  /// hashing. A flat vector, not a map: a core has a handful of runnable
  /// contexts, and the vector keeps its capacity, so a warm demand ->
  /// complete cycle does not allocate.
  std::vector<Request> active_;
  /// Scratch for complete_and_reschedule's finished callbacks; a member
  /// so its capacity is reused.
  std::vector<EngineCore::Callback> finished_;
  SimTime last_update_ = SimTime::zero();
  double busy_sec_ = 0.0;
  EventHandle completion_event_;
};

}  // namespace cloudlb
