#pragma once

#include "lb/framework.h"
#include "machine/core.h"
#include "util/sim_time.h"

namespace cloudlb {

class RuntimeJob;

/// Hook interface for tools that watch a job execute (timeline tracers,
/// statistics collectors). All callbacks are optional; default-no-op.
class ExecutionObserver {
 public:
  virtual ~ExecutionObserver() = default;

  /// One task (entry-method execution) finished on a PE.
  virtual void on_task_executed(const RuntimeJob& /*job*/, PeId /*pe*/,
                                CoreId /*core*/, ChareId /*chare*/,
                                int /*tag*/, SimTime /*start*/,
                                SimTime /*end*/) {}

  /// A load-balancing step completed its decision phase.
  virtual void on_lb_step(const RuntimeJob& /*job*/, int /*step*/,
                          SimTime /*time*/, int /*migrations*/) {}

  /// One chare was told to migrate between PEs. Fires at decision time,
  /// before the attempt runs — under migration faults it may still fail.
  virtual void on_migration(const RuntimeJob& /*job*/, ChareId /*chare*/,
                            PeId /*from*/, PeId /*to*/) {}
};

}  // namespace cloudlb
