#include "core/balancer_factory.h"

#include "core/forecasting_estimator.h"
#include "core/gain_gated_lb.h"
#include "core/interference_aware_lb.h"
#include "lb/registry.h"
#include "util/check.h"

namespace cloudlb {

std::unique_ptr<LoadBalancer> make_balancer(const std::string& name,
                                            LbOptions options) {
  if (name == "ia-refine")
    return std::make_unique<InterferenceAwareRefineLb>(options);
  if (name == "gain-gated") {
    GainGateOptions gg;
    gg.base = options;
    gg.migration_sec_per_byte = options.migration_sec_per_byte_hint;
    return std::make_unique<MigrationGainGatedLb>(gg);
  }
  if (name == "ia-refine-ewma") {
    // A preset, not a strategy: ia-refine forecasting with the EWMA.
    const std::string conflict = balancer_conflict(name, options);
    CLB_CHECK_MSG(conflict.empty(), conflict);
    options.robustness.estimator_mode = EstimatorMode::kEwma;
    return std::make_unique<InterferenceAwareRefineLb>(options);
  }
  auto baseline = make_baseline_balancer(name, options);
  CLB_CHECK_MSG(baseline != nullptr, "unknown balancer: " << name);
  return baseline;
}

std::string balancer_conflict(const std::string& name,
                              const LbOptions& options) {
  const EstimatorMode mode = options.robustness.estimator_mode;
  if (name != "ia-refine-ewma" || mode == EstimatorMode::kPersist ||
      mode == EstimatorMode::kEwma)
    return "";
  return "--balancer=ia-refine-ewma is ia-refine --estimator=ewma; it "
         "cannot be combined with --estimator=" +
         estimator_mode_name(mode);
}

std::vector<std::string> balancer_names() {
  auto names = baseline_balancer_names();
  names.push_back("ia-refine");
  names.push_back("ia-refine-ewma");
  names.push_back("gain-gated");
  return names;
}

}  // namespace cloudlb
