#pragma once

#include "sim/engine_core.h"

namespace cloudlb {

/// Deterministic discrete-event simulator.
///
/// Events scheduled for the same timestamp execute in scheduling order
/// (FIFO tie-break by sequence number), so a scenario is bit-reproducible
/// across runs and platforms. Single-threaded by design: the parallelism
/// being studied lives *inside* the simulated machine, not in the host —
/// host-level parallelism runs whole independent Simulators side by side
/// (util/thread_pool.h, bench::ParallelGrid) or shards one scenario
/// across EngineCores behind ShardedSimulator (docs/sharded-engine.md).
///
/// The whole mechanism — slot arena, 4-ary heap, lazy cancellation, trace
/// hook, the strict clock — lives in EngineCore (sim/engine_core.h);
/// Simulator is that core with a public, single-engine identity. The split
/// exists so ShardedSimulator can own N cores without N copies of the
/// machinery, while every single-threaded caller keeps this name.
class Simulator final : public EngineCore {};

}  // namespace cloudlb
