#pragma once

#include "core/scenario.h"
#include "metrics/timeline.h"

namespace cloudlb {

/// Test-only reference for run_scenario: the same experiment on one
/// Simulator, advanced by a plain step loop, with the power meter stopped
/// after the step that finishes the application job. config.shards and
/// config.shard_workers are ignored. The differential tiers compare the
/// ShardedRuntimeHost driver against it at every shard count.
RunResult run_single_engine_scenario(const ScenarioConfig& config,
                                     TimelineTracer* tracer = nullptr);

}  // namespace cloudlb
