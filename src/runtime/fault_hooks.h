#pragma once

#include "lb/framework.h"

namespace cloudlb {

/// Verdict a fault model returns for one migration attempt.
enum class MigrationFault {
  kNone,          ///< the attempt proceeds normally
  kFailAtSource,  ///< pack fails; nothing ever left the source PE
  kFailAtDest,    ///< pack and transfer happened, but unpack fails — the
                  ///< "partial migration" case (state arrived, could not be
                  ///< installed; the source copy stays authoritative)
};

/// One migration attempt as seen by a fault model. `attempt` is 0 for the
/// first try and counts up across retries of the same chare move.
struct MigrationAttempt {
  ChareId chare = 0;
  PeId from = 0;
  PeId to = 0;
  int attempt = 0;
};

/// Runtime-facing fault-injection surface. The runtime owns the two places
/// where injected faults can enter a job without violating its internal
/// invariants: the LB statistics snapshot (between collect_stats() and the
/// strategy) and the migration pipeline (per attempt). Implemented by
/// faults::FaultInjector; the runtime itself never depends on the faults
/// library, only on this interface.
///
/// Implementations must be deterministic functions of their own seeded
/// state and the call sequence — the runtime calls them at deterministic
/// points of the simulation, so a seeded injector reproduces bit-identical
/// fault schedules across runs.
///
/// Thread-safety note for the shard-partitioned runtime: both hooks are
/// invoked only from serialized global phases (LB barriers), never from
/// inside a conservative window, so a single-threaded implementation is
/// sufficient even when windows run on a worker team. The call sequence
/// is the same for every shard count (decision order at the barrier
/// instant; retries in chronological order, same-instant retries in
/// chare order), which is what keeps seeded fault schedules identical
/// across `--shards` values.
class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  /// Mutates the stats snapshot the balancer is about to see (dropped or
  /// stale samples, corrupted counters, measurement jitter). Called once
  /// per LB step, before LoadBalancer::assign.
  virtual void perturb_stats(LbStats& stats) = 0;

  /// Decides the fate of one migration attempt. Called once per attempt,
  /// in deterministic (decision-order, then retry-order) sequence.
  [[nodiscard]] virtual MigrationFault on_migration(
      const MigrationAttempt& attempt) = 0;
};

}  // namespace cloudlb
