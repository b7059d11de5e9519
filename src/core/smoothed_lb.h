#pragma once

#include <vector>

#include "core/forecasting_estimator.h"
#include "lb/framework.h"

namespace cloudlb {

/// Interference-aware refinement with a smoothed background estimate.
///
/// The paper's scheme predicts the next window's background load from the
/// last window alone (principle of persistence). Under bursty tenants
/// that estimate whipsaws: an interferer active for half of one window
/// looks like a 50 % tax that may be gone next window, causing migration
/// churn. This variant keeps an exponentially weighted moving average of
/// O_p per PE,
///
///     Ô_p ← α · O_p(window) + (1 − α) · Ô_p,
///
/// and feeds Ô_p into Algorithm 1. α = 1 degenerates to the paper's
/// last-window behaviour; smaller α trades reaction speed for stability.
///
/// The robustness/forecasting layer of LbRobustnessOptions (outlier
/// clamp, proactive estimator modes) applies here too: the composed
/// estimate feeds this class's own EWMA, so e.g. `--estimator=trend`
/// smooths a *predicted* series. The default options change nothing.
class SmoothedInterferenceAwareLb final : public LoadBalancer {
 public:
  struct Options {
    LbOptions base;
    double alpha = 0.5;  ///< EWMA weight of the newest window, in (0, 1]
  };

  explicit SmoothedInterferenceAwareLb(Options options);
  SmoothedInterferenceAwareLb() : SmoothedInterferenceAwareLb(Options{}) {}

  std::string name() const override { return "ia-refine-ewma"; }
  std::vector<PeId> assign(const LbStats& stats) override;

  /// Current smoothed per-PE estimate (diagnostics/tests).
  const std::vector<double>& smoothed_background() const { return ewma_; }

 private:
  Options options_;
  ProactiveBackgroundEstimator estimator_;
  std::vector<double> ewma_;
};

}  // namespace cloudlb
