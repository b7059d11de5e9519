#pragma once

#include "core/forecasting_estimator.h"
#include "lb/framework.h"

namespace cloudlb {

/// Options for the gain-gated strategy.
struct GainGateOptions {
  LbOptions base;

  /// Assumed end-to-end migration cost per byte of chare state
  /// (pack + transfer + unpack). Clouds have slow virtualized networks —
  /// the very concern the paper raises — so the default assumes ~3 ns/B
  /// (≈ 333 MB/s effective).
  double migration_sec_per_byte = 3e-9;

  /// Required ratio of projected gain to migration cost before any
  /// migration is allowed. 1.0 = break-even.
  double gain_threshold = 1.0;

  /// How many future LB windows the improved balance is expected to
  /// persist (the principle of persistence). Migration is a one-time
  /// cost; its benefit recurs every window until the load shifts again,
  /// so the per-window gain is amortized over this horizon.
  double horizon_windows = 10.0;
};

/// The paper's §VI future-work strategy: run the interference-aware
/// refinement *decision* on every LB step, but perform the data migration
/// only when the expected gain offsets its cost.
///
/// Gain is projected as the reduction of the maximum PE load (background
/// included) the refinement achieves — the makespan of a tightly coupled
/// iteration tracks the most loaded core — multiplied by the persistence
/// horizon (the improved balance keeps paying off window after window).
/// Cost is the serialized bytes of every moved chare times an assumed
/// per-byte migration cost. When gain < cost · threshold the step keeps
/// the current mapping.
///
/// The background estimate comes from the same front end as ia-refine's
/// (ProactiveBackgroundEstimator), so the outlier clamp and forecasting
/// modes of LbRobustnessOptions apply; the defaults are the raw Eq. 2
/// estimate.
class MigrationGainGatedLb final : public LoadBalancer {
 public:
  explicit MigrationGainGatedLb(GainGateOptions options)
      : options_{options}, estimator_{options.base.robustness} {}
  MigrationGainGatedLb() : MigrationGainGatedLb(GainGateOptions{}) {}

  std::string name() const override { return "gain-gated"; }
  std::vector<PeId> assign(const LbStats& stats) override;

  int gated_steps() const { return gated_steps_; }
  int migrating_steps() const { return migrating_steps_; }

 private:
  GainGateOptions options_;
  ProactiveBackgroundEstimator estimator_;
  int gated_steps_ = 0;
  int migrating_steps_ = 0;
};

}  // namespace cloudlb
