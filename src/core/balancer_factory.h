#pragma once

#include <memory>
#include <string>
#include <vector>

#include "lb/framework.h"

namespace cloudlb {

/// Creates any strategy in the library by name: the baselines ("null",
/// "greedy", "refine", "random") plus the paper's strategies ("ia-refine",
/// "gain-gated") and the "ia-refine-ewma" preset (ia-refine with
/// estimator_mode = kEwma; any other forecasting mode is rejected).
/// Throws CheckFailure for unknown names.
std::unique_ptr<LoadBalancer> make_balancer(const std::string& name,
                                            LbOptions options = {});

/// Why make_balancer would refuse `name` with `options` (the
/// ia-refine-ewma preset fixes the estimator mode), or "" if it would not.
std::string balancer_conflict(const std::string& name,
                              const LbOptions& options);

/// Every name make_balancer accepts.
std::vector<std::string> balancer_names();

}  // namespace cloudlb
