#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/background_estimator.h"
#include "lb/framework.h"

namespace cloudlb {

/// One-window-ahead forecast of the per-PE background series.
struct Forecast {
  /// Predicted O_p per PE, `horizon` windows ahead of the newest
  /// observation. Extrapolation may leave [0, T_lb]; the consumer clamps
  /// (ProactiveBackgroundEstimator does) because only it knows T_lb.
  std::vector<double> predicted;

  /// One-sided confidence half-width per PE — an online estimate of the
  /// forecaster's own one-step error on this series, scaled to the
  /// horizon. Zero until the forecaster has seen enough windows to have
  /// made a checkable prediction.
  std::vector<double> band;
};

/// A forecasting estimator ingests the per-PE background series (the
/// paper's Eq. 2 values, already through the outlier clamp when one is
/// configured — clamp first, forecast on the clamped series) one LB
/// window at a time and predicts where each PE's O_p will be `horizon`
/// windows ahead.
///
/// The paper's principle of persistence predicts the next window from the
/// last one; under dynamic-arrival interference (fig3, the fault
/// waveforms) that is exactly one window too late — the balancer always
/// chases the spike instead of anticipating it. These estimators follow
/// the trend of the series instead ("On the Benefits of Anticipating
/// Load Imbalance", Boulmier et al.; RUPER-LB's velocity correction).
///
/// Contract: deterministic, state only from the observations fed in, and
/// a PE-count change resets all per-PE state (topology changed; stale
/// levels/velocities must not survive it).
class ForecastingEstimator {
 public:
  virtual ~ForecastingEstimator() = default;
  virtual std::string name() const = 0;

  /// Ingests the newest per-PE observation and returns the forecast
  /// `horizon` windows ahead (same shape as `observed`).
  virtual Forecast step(const std::vector<double>& observed,
                        double horizon) = 0;
};

/// Factory for the mode picked in LbRobustnessOptions. kPersist returns
/// nullptr — persistence is the *absence* of a forecasting layer, so the
/// default path stays byte-identical to the paper's scheme.
std::unique_ptr<ForecastingEstimator> make_forecasting_estimator(
    const LbRobustnessOptions& options);

/// CLI-name round trip for EstimatorMode ("persist", "ewma", "trend",
/// "regress"). from_name throws CheckFailure listing the valid names.
EstimatorMode estimator_mode_from_name(const std::string& name);
std::string estimator_mode_name(EstimatorMode mode);
/// Every name estimator_mode_from_name accepts.
std::vector<std::string> estimator_mode_names();

/// The composed estimator front-end the interference-aware balancers use:
///
///     Eq. 2  →  [median-of-window outlier clamp]  →  [forecaster]
///
/// In the default configuration (persist mode, no clamp window) this is
/// exactly `estimate_background_load` — same calls, same values, pinned
/// byte-identical by the golden trace digest. With a clamp window the
/// clamp runs first so a one-window measurement glitch cannot poison the
/// forecaster's trend state; with a forecasting mode the balancer plans
/// against `predicted + margin · band`, clamped into [0, T_lb].
///
/// The front-end also keeps the books on its own mistakes: a window whose
/// observation lands outside the previous forecast's confidence band
/// (plus the wall-slack tolerance) counts as mispredicted, which the
/// balancer uses to attribute migration churn to bad forecasts.
class ProactiveBackgroundEstimator {
 public:
  explicit ProactiveBackgroundEstimator(const LbRobustnessOptions& options);

  /// Per-PE background loads to balance against (shape of stats.pes).
  std::vector<double> estimate(const LbStats& stats);

  /// True when a forecasting mode (anything but persist) is active.
  bool forecasting() const { return forecaster_ != nullptr; }

  /// Estimates capped by the outlier clamp so far; 0 without a window.
  int clamped_count() const {
    return windowed_ != nullptr ? windowed_->clamped_count() : 0;
  }

  /// Windows whose observation fell outside the previous forecast's
  /// confidence band. Always 0 in persist mode (nothing predicts).
  int mispredicted_windows() const { return mispredicted_; }

  /// Whether the newest estimate() call found the previous forecast
  /// wrong — i.e. whatever the balancer does *this* window, it does off
  /// the back of a misprediction.
  bool last_window_mispredicted() const { return last_mispredicted_; }

 private:
  LbRobustnessOptions options_;
  std::unique_ptr<WindowedBackgroundEstimator> windowed_;
  std::unique_ptr<ForecastingEstimator> forecaster_;
  std::vector<double> last_predicted_;  ///< forecast made for this window
  std::vector<double> last_band_;
  int mispredicted_ = 0;
  bool last_mispredicted_ = false;
};

}  // namespace cloudlb
