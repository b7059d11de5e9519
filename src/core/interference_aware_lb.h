#pragma once

#include "core/forecasting_estimator.h"
#include "lb/framework.h"

namespace cloudlb {

/// The paper's contribution: refinement load balancing that accounts for
/// VM interference.
///
/// Per LB step it (1) estimates each PE's background load O_p from the LB
/// database and host idle counters (Eq. 2, see estimate_background_load),
/// (2) computes T_avg over application *plus* background load (Eq. 1), and
/// (3) runs the paper's Algorithm 1 refinement so every PE ends within ε
/// of T_avg (Eq. 3) while migrating as few chares as possible — objects
/// move *away from* cores busy serving co-located VMs and return once the
/// interference disappears.
///
/// Degradation (all off by default, see LbRobustnessOptions): when the
/// window's measurements are garbage — corrupted counters, failed reads —
/// the balancer can fall back to the current assignment (the last one a
/// good window produced) rather than migrate on noise, and the background
/// estimate can pass through a median-of-window outlier clamp.
///
/// Proactive mode (estimator_mode != persist): the background estimate is
/// additionally run through a forecasting estimator (EWMA / linear trend /
/// windowed regression, see forecasting_estimator.h) so refinement
/// balances against the *predicted* next-window O_p and migrates before a
/// spike lands instead of one window after it. The default persist mode
/// takes none of these paths and stays byte-identical to the paper.
class InterferenceAwareRefineLb final : public LoadBalancer {
 public:
  explicit InterferenceAwareRefineLb(LbOptions options = {});

  /// The EWMA mode is the ia-refine-ewma preset, and says so.
  std::string name() const override {
    return options_.robustness.estimator_mode == EstimatorMode::kEwma
               ? "ia-refine-ewma"
               : "ia-refine";
  }
  std::vector<PeId> assign(const LbStats& stats) override;

  /// Total chares moved across all assign() calls (diagnostics).
  int total_migrations() const { return total_migrations_; }

  /// LB steps skipped because the stats failed the sanity test.
  int garbage_fallbacks() const { return garbage_fallbacks_; }

  /// Windows whose forecast the next observation refuted (0 in persist
  /// mode — persistence never claims to predict).
  int mispredicted_windows() const {
    return estimator_.mispredicted_windows();
  }

  /// Migrations commanded in windows balanced off a forecast the
  /// observation then refuted — the churn bill of bad predictions.
  int mispredict_churn() const { return mispredict_churn_; }

 private:
  LbOptions options_;
  ProactiveBackgroundEstimator estimator_;
  int total_migrations_ = 0;
  int garbage_fallbacks_ = 0;
  int mispredict_churn_ = 0;
};

}  // namespace cloudlb
