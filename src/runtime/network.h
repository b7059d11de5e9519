#pragma once

#include <cstddef>

#include "util/sim_time.h"

namespace cloudlb {

/// Point-to-point network cost model.
///
/// Cloud networks are the weak spot the paper repeatedly flags; the default
/// inter-node figures model a virtualized Ethernet (tens of microseconds of
/// latency, ~1 GB/s), while intra-node transfers go through shared memory.
struct NetworkConfig {
  SimTime intra_node_latency = SimTime::micros(2);
  SimTime inter_node_latency = SimTime::micros(60);
  double intra_node_bandwidth = 4.0e9;  ///< bytes/second
  double inter_node_bandwidth = 1.0e9;  ///< bytes/second
};

/// Latency + size/bandwidth delivery delay for one message.
SimTime delivery_delay(const NetworkConfig& net, std::size_t bytes,
                       bool same_node);

/// Lower bound on every inter-node delivery delay — the conservative
/// lookahead the sharded engine's window protocol builds on
/// (docs/sharded-engine.md): a cross-node message costs at least the base
/// inter-node latency, so windows of this width can never be pierced.
[[nodiscard]] SimTime min_internode_delay(const NetworkConfig& net);

/// Window width for the shard-partitioned runtime: just the conservative
/// lookahead above, under its runtime-facing name. Kept as its own entry
/// point so a future width policy (e.g. widening windows when the
/// cross-shard rate is low) changes one function, not every caller.
[[nodiscard]] inline SimTime shard_window_width(const NetworkConfig& net) {
  return min_internode_delay(net);
}

}  // namespace cloudlb
