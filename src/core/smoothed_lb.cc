#include "core/smoothed_lb.h"

#include "lb/refinement.h"
#include "util/check.h"

namespace cloudlb {

SmoothedInterferenceAwareLb::SmoothedInterferenceAwareLb(Options options)
    : options_{options}, estimator_{options.base.robustness} {
  CLB_CHECK(options.alpha > 0.0 && options.alpha <= 1.0);
}

std::vector<PeId> SmoothedInterferenceAwareLb::assign(const LbStats& stats) {
  // With default robustness options this is exactly the raw Eq. 2
  // estimate; with a clamp window or forecasting mode the composed
  // (clamp → forecast) series feeds the EWMA below.
  const std::vector<double> fresh = estimator_.estimate(stats);
  if (ewma_.size() != fresh.size()) {
    ewma_ = fresh;  // first window (or the PE set changed): seed directly
  } else {
    for (std::size_t p = 0; p < fresh.size(); ++p)
      ewma_[p] = options_.alpha * fresh[p] + (1.0 - options_.alpha) * ewma_[p];
  }
  // Normalize to the current window length: the EWMA mixes windows of
  // (slightly) different wall lengths, which refinement tolerates since
  // loads only matter relative to T_avg.
  return refine_assignment(stats, ewma_, make_refinement_options(options_.base))
      .assignment;
}

}  // namespace cloudlb
