#pragma once

#include "sim/engine_core.h"

namespace cloudlb {

/// Deterministic discrete-event simulator.
///
/// Events scheduled for the same timestamp execute in scheduling order
/// (FIFO tie-break by sequence number), so a scenario is bit-reproducible
/// across runs and platforms. The event order is single-threaded by
/// design: the parallelism being studied lives *inside* the simulated
/// machine, not in the host — host-level parallelism runs whole
/// independent Simulators side by side (util/thread_pool.h,
/// bench::ParallelGrid), shards one scenario across EngineCores behind
/// ShardedSimulator (docs/sharded-engine.md), or runs a handler's kernel
/// on a host worker between its task's start and completion events
/// (util/offload.h, docs/runtime.md), which adds and reorders no event.
///
/// The whole mechanism — slot arena, 4-ary heap, lazy cancellation, trace
/// hook, the strict clock — lives in EngineCore (sim/engine_core.h);
/// Simulator is that core with a public, single-engine identity. The split
/// exists so ShardedSimulator can own N cores without N copies of the
/// machinery, while every single-threaded caller keeps this name.
class Simulator final : public EngineCore {};

}  // namespace cloudlb
