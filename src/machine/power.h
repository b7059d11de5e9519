#pragma once

#include "machine/machine.h"
#include "sim/engine_core.h"
#include "util/sim_time.h"

namespace cloudlb {

/// Node-level power model.
///
/// P_node(t) = base + dynamic_per_core · Σ_core util_core(t).
/// Defaults are the paper's testbed figures: 40 W base per node and a
/// 170 W full-load quad-core node, i.e. (170 − 40) / 4 = 32.5 W per busy
/// core. The paper's energy argument depends on exactly these two facts:
/// high base power, and dynamic power proportional to utilization.
struct PowerModelConfig {
  double base_watts_per_node = 40.0;
  double dynamic_watts_per_core = 32.5;
};

/// Per-node power meter: the exact energy integral over a metered window,
/// computed from the cores' cumulative busy time (the paper's 1 Hz node
/// meters sample the same quantity).
class PowerMeter {
 public:
  /// Meter on `clock`: start() and stop() read the window's ends from it,
  /// and energy_joules()/window() stay live while it runs.
  PowerMeter(EngineCore& clock, Machine& machine,
             PowerModelConfig config = {});

  /// Meter with no clock of its own (a sharded host has one per shard):
  /// the window's ends are explicit global instants (start_at/stop_at),
  /// and energy is defined once it stops.
  PowerMeter(Machine& machine, PowerModelConfig config = {});

  /// start_at / stop_at the clock's current time.
  void start();
  void stop();

  /// Begins metering at `t`; `t` must satisfy the proc_stat_at contract
  /// on every core's engine (the sharded host's global phases guarantee
  /// it).
  void start_at(SimTime t);
  /// Ends metering at `t` and freezes energy and window. Idempotent.
  void stop_at(SimTime t);

  bool running() const { return running_; }

  /// Exact energy (J) consumed by all nodes over [start, stop] (or
  /// [start, now) while still running).
  double energy_joules() const;

  /// Exact mean power (W) over the metered window.
  double average_power_watts() const;

  /// Metered wall time so far.
  SimTime window() const;

  const PowerModelConfig& config() const { return config_; }

 private:
  double total_busy_seconds_at(SimTime t) const;
  /// The clock's time; only a clocked meter has a "now".
  SimTime now() const;

  EngineCore* clock_;  ///< null for a meter built without a clock
  Machine& machine_;
  PowerModelConfig config_;
  bool running_ = false;
  SimTime start_time_;
  SimTime stop_time_;
  double busy_at_start_ = 0.0;
  double busy_at_stop_ = 0.0;
};

}  // namespace cloudlb
