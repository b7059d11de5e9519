#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine_core.h"
#include "util/rng.h"
#include "vm/interferer.h"

namespace cloudlb {

/// A population of co-located tenant VMs — the paper's §VI future-work
/// setting ("a public cloud where multiple VMs share CPU resources").
///
/// Each tenant is a single-vCPU CPU-bound VM pinned to a random core of
/// the machine, alternating exponentially distributed busy ("on") and
/// quiet ("off") episodes. The result is exactly the environment the
/// paper argues needs *continuous* balancing: interference whose
/// location, intensity and duration all drift over time, reproducibly
/// (everything is driven by one seed).
struct TenantFieldConfig {
  int num_tenants = 4;
  double mean_on_seconds = 2.0;   ///< exponential mean of busy episodes
  double mean_off_seconds = 2.0;  ///< exponential mean of quiet episodes
  double duty_cycle = 1.0;        ///< CPU appetite while "on"
  double weight = 1.0;            ///< scheduler share of each tenant vCPU
  std::uint64_t seed = 99;
};

class TenantField {
 public:
  /// `sim` runs every tenant's burst chain, so it must be the engine of
  /// every core in `machine`: a Simulator, or a one-shard host's engine.
  TenantField(EngineCore& sim, Machine& machine, TenantFieldConfig config);

  /// Begins every tenant's on/off cycle (first episode starts after a
  /// random fraction of an off-period, so tenants are desynchronized).
  void start();

  /// Stops scheduling new episodes; running bursts drain naturally.
  void stop();

  int num_tenants() const { return static_cast<int>(tenants_.size()); }

  /// Tenants currently in a busy episode.
  int active_tenants() const;

  /// The core each tenant is pinned to (diagnostics/tests).
  CoreId core_of_tenant(int tenant) const;

  /// Total CPU consumed by all tenants so far.
  SimTime cpu_consumed() const;

 private:
  struct Tenant {
    std::unique_ptr<SyntheticInterferer> hog;
    CoreId core;
  };

  void schedule_on(int tenant);
  void schedule_off(int tenant);

  EngineCore& sim_;
  TenantFieldConfig config_;
  Rng rng_;
  std::vector<Tenant> tenants_;
  bool running_ = false;
};

}  // namespace cloudlb
