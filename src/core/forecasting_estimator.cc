#include "core/forecasting_estimator.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace cloudlb {

namespace {

/// Smoothing weight of the newest observation for the EWMA and trend
/// forecasters and for every forecaster's error band.
constexpr double kForecastAlpha = 0.5;

/// History length of the windowed-least-squares forecaster.
constexpr int kRegressWindow = 8;

/// Shared per-PE error tracking: an EWMA of the absolute one-step-ahead
/// prediction error, which is what the confidence band reports. Scaling
/// the band linearly with the horizon is deliberately conservative —
/// extrapolation error compounds at least that fast on trending series.
class ErrorTracker {
 public:
  explicit ErrorTracker(double alpha) : alpha_{alpha} {}

  void reset(std::size_t n) { err_.assign(n, 0.0); }
  std::size_t size() const { return err_.size(); }

  /// Folds in this window's |observed - predicted| for PE p.
  void observe(std::size_t p, double abs_error) {
    err_[p] = alpha_ * abs_error + (1.0 - alpha_) * err_[p];
  }

  double band(std::size_t p, double horizon) const {
    return err_[p] * horizon;
  }

 private:
  double alpha_;
  std::vector<double> err_;
};

/// Exponentially weighted level, flat forecast: Ô ← α·x + (1−α)·Ô. The
/// cloud-noise workhorse — it cannot anticipate a ramp, but it stops the
/// balancer whipsawing after bursty tenants (half the fig3 pathology).
class EwmaForecaster final : public ForecastingEstimator {
 public:
  explicit EwmaForecaster(double alpha) : alpha_{alpha}, errors_{alpha} {}

  std::string name() const override { return "ewma"; }

  Forecast step(const std::vector<double>& observed,
                double horizon) override {
    const std::size_t n = observed.size();
    if (level_.size() != n) {  // first window or topology change: reseed
      level_ = observed;
      errors_.reset(n);
    } else {
      for (std::size_t p = 0; p < n; ++p) {
        errors_.observe(p, std::abs(observed[p] - level_[p]));
        level_[p] = alpha_ * observed[p] + (1.0 - alpha_) * level_[p];
      }
    }
    Forecast f;
    f.predicted = level_;  // flat: the level is the forecast at any horizon
    f.band.resize(n);
    for (std::size_t p = 0; p < n; ++p) f.band[p] = errors_.band(p, horizon);
    return f;
  }

 private:
  double alpha_;
  std::vector<double> level_;
  ErrorTracker errors_;
};

/// Holt-style double exponential smoothing: a level plus a velocity,
/// extrapolated linearly. This is RUPER-LB's velocity correction — the
/// estimator that sees interference *rising* and hands refinement the
/// level it will reach next window, not the level it had last window.
class TrendForecaster final : public ForecastingEstimator {
 public:
  explicit TrendForecaster(double alpha) : alpha_{alpha}, errors_{alpha} {}

  std::string name() const override { return "trend"; }

  Forecast step(const std::vector<double>& observed,
                double horizon) override {
    const std::size_t n = observed.size();
    if (level_.size() != n) {
      level_ = observed;
      velocity_.assign(n, 0.0);
      errors_.reset(n);
    } else {
      for (std::size_t p = 0; p < n; ++p) {
        const double one_step = level_[p] + velocity_[p];
        errors_.observe(p, std::abs(observed[p] - one_step));
        const double new_level =
            alpha_ * observed[p] + (1.0 - alpha_) * one_step;
        velocity_[p] = alpha_ * (new_level - level_[p]) +
                       (1.0 - alpha_) * velocity_[p];
        level_[p] = new_level;
      }
    }
    Forecast f;
    f.predicted.resize(n);
    f.band.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      f.predicted[p] = level_[p] + horizon * velocity_[p];
      f.band[p] = errors_.band(p, horizon);
    }
    return f;
  }

 private:
  double alpha_;
  std::vector<double> level_;
  std::vector<double> velocity_;
  ErrorTracker errors_;
};

/// Windowed least squares: fit a line through the last `window` clamped
/// observations and read it off at t + horizon. Heavier than Holt but
/// immune to its slow velocity decay after a spike ends — old windows
/// leave the fit entirely instead of lingering exponentially.
class RegressForecaster final : public ForecastingEstimator {
 public:
  RegressForecaster(int window, double alpha)
      : window_{static_cast<std::size_t>(window)}, errors_{alpha} {}

  std::string name() const override { return "regress"; }

  Forecast step(const std::vector<double>& observed,
                double horizon) override {
    const std::size_t n = observed.size();
    if (history_.size() != n) {
      history_.assign(n, {});
      errors_.reset(n);
    }
    Forecast f;
    f.predicted.resize(n);
    f.band.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
      auto& h = history_[p];
      if (!h.empty())
        errors_.observe(p, std::abs(observed[p] - extrapolate(h, 1.0)));
      h.push_back(observed[p]);
      if (h.size() > window_) h.erase(h.begin());  // tiny window; O(w) is fine
      f.predicted[p] = extrapolate(h, horizon);
      f.band[p] = errors_.band(p, horizon);
    }
    return f;
  }

 private:
  /// Least-squares line through h (x = 0..m-1, oldest first), evaluated
  /// at x = m-1+horizon. Fewer than 2 points: persistence.
  static double extrapolate(const std::vector<double>& h, double horizon) {
    const std::size_t m = h.size();
    if (m < 2) return h.empty() ? 0.0 : h.back();
    // Closed-form simple regression with x = 0..m-1: x̄ = (m-1)/2 and
    // Σ(x-x̄)² = m(m²-1)/12 are exact, so only Σ(x-x̄)·y needs the data.
    const double mean_x = 0.5 * static_cast<double>(m - 1);
    double mean_y = 0.0;
    for (double y : h) mean_y += y;
    mean_y /= static_cast<double>(m);
    double sxy = 0.0;
    for (std::size_t i = 0; i < m; ++i)
      sxy += (static_cast<double>(i) - mean_x) * (h[i] - mean_y);
    const double sxx =
        static_cast<double>(m) *
        (static_cast<double>(m) * static_cast<double>(m) - 1.0) / 12.0;
    const double slope = sxy / sxx;
    const double x = static_cast<double>(m - 1) + horizon;
    return mean_y + slope * (x - mean_x);
  }

  std::size_t window_;
  std::vector<std::vector<double>> history_;  ///< per PE, oldest first
  ErrorTracker errors_;
};

}  // namespace

std::unique_ptr<ForecastingEstimator> make_forecasting_estimator(
    const LbRobustnessOptions& options) {
  CLB_CHECK_MSG(options.forecast_horizon > 0.0,
                "forecast horizon must be positive; got "
                    << options.forecast_horizon);
  CLB_CHECK_MSG(options.forecast_margin >= 0.0,
                "forecast margin must be non-negative; got "
                    << options.forecast_margin);
  switch (options.estimator_mode) {
    case EstimatorMode::kPersist:
      return nullptr;
    case EstimatorMode::kEwma:
      return std::make_unique<EwmaForecaster>(kForecastAlpha);
    case EstimatorMode::kTrend:
      return std::make_unique<TrendForecaster>(kForecastAlpha);
    case EstimatorMode::kRegress:
      return std::make_unique<RegressForecaster>(kRegressWindow,
                                                 kForecastAlpha);
  }
  CLB_CHECK_MSG(false, "unhandled estimator mode");
  return nullptr;
}

EstimatorMode estimator_mode_from_name(const std::string& name) {
  if (name == "persist") return EstimatorMode::kPersist;
  if (name == "ewma") return EstimatorMode::kEwma;
  if (name == "trend") return EstimatorMode::kTrend;
  if (name == "regress") return EstimatorMode::kRegress;
  CLB_CHECK_MSG(false, "unknown estimator mode '"
                           << name
                           << "'; expected persist|ewma|trend|regress");
  return EstimatorMode::kPersist;
}

std::string estimator_mode_name(EstimatorMode mode) {
  switch (mode) {
    case EstimatorMode::kPersist:
      return "persist";
    case EstimatorMode::kEwma:
      return "ewma";
    case EstimatorMode::kTrend:
      return "trend";
    case EstimatorMode::kRegress:
      return "regress";
  }
  return "persist";
}

std::vector<std::string> estimator_mode_names() {
  return {"persist", "ewma", "trend", "regress"};
}

ProactiveBackgroundEstimator::ProactiveBackgroundEstimator(
    const LbRobustnessOptions& options)
    : options_{options},
      forecaster_{make_forecasting_estimator(options)} {
  if (options_.estimator_window > 0)
    windowed_ = std::make_unique<WindowedBackgroundEstimator>(
        options_.estimator_window, options_.estimator_clamp_factor);
}

std::vector<double> ProactiveBackgroundEstimator::estimate(
    const LbStats& stats) {
  // Clamp first: the forecaster must learn the trend of the *clamped*
  // series, or a one-window glitch would both command a migration and
  // poison the velocity for windows afterwards.
  std::vector<double> observed = windowed_ != nullptr
                                     ? windowed_->estimate(stats)
                                     : estimate_background_load(stats);
  if (forecaster_ == nullptr) return observed;  // persist: the paper's path

  // Score the forecast this window was balanced against, before the
  // forecaster sees the new observation. A topology change (size
  // mismatch) voids the old forecast rather than counting it wrong.
  last_mispredicted_ = false;
  if (last_predicted_.size() == observed.size()) {
    for (std::size_t p = 0; p < observed.size(); ++p) {
      const double tolerance =
          last_band_[p] + wall_slack(std::max(stats.pes[p].wall_sec, 0.0));
      if (std::abs(observed[p] - last_predicted_[p]) > tolerance) {
        last_mispredicted_ = true;
        break;
      }
    }
    if (last_mispredicted_) ++mispredicted_;
  }

  Forecast f = forecaster_->step(observed, options_.forecast_horizon);
  last_predicted_ = f.predicted;
  last_band_ = f.band;

  std::vector<double> out(observed.size());
  for (std::size_t p = 0; p < out.size(); ++p) {
    const double wall = std::max(stats.pes[p].wall_sec, 0.0);
    // Same physical bound as the Eq. 2 boundary clamp: no co-located VM
    // can consume more than the window, predicted or not.
    out[p] = std::clamp(
        f.predicted[p] + options_.forecast_margin * f.band[p], 0.0, wall);
  }
  return out;
}

}  // namespace cloudlb
