#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/sim_time.h"

namespace cloudlb {

/// A one-shot step of synthetic interference: a CPU hog on one core from
/// `start` for `duration`, at the given duty cycle. duty = 0 or
/// duration = 0 is inert (the model is pruned).
struct SpikeFaultSpec {
  int core = 0;
  SimTime start;
  SimTime duration = SimTime::seconds(1);
  double duty = 1.0;    ///< CPU appetite while on, in [0, 1]
  double weight = 1.0;  ///< scheduler share of the hog's VM
};

/// A square-wave interferer: from `start`, repeats "on for `on`, off for
/// the rest of `period`" forever. duty = 0 or on = 0 is inert.
struct SquareWaveFaultSpec {
  int core = 0;
  SimTime start;
  SimTime period = SimTime::seconds(2);
  SimTime on = SimTime::seconds(1);
  double duty = 1.0;
  double weight = 1.0;
};

/// Heavy-tailed bursty interference: `cores` single-core hogs on seeded
/// random cores, each alternating Pareto(alpha, min_on) busy episodes with
/// exponential(mean_off) quiet ones. Models the occasional pathological
/// neighbour whose bursts have no characteristic length. cores = 0 or
/// duty = 0 is inert.
struct ParetoFaultSpec {
  int cores = 1;
  double alpha = 1.5;   ///< Pareto shape; smaller = heavier tail (> 0)
  SimTime min_on = SimTime::millis(50);  ///< Pareto scale x_m
  double mean_off_sec = 1.0;
  double duty = 1.0;
  double weight = 1.0;
};

/// Each chare's load-DB record is independently lost with `prob`: the LB
/// sees cpu_sec = 0 for that chare and the owning PE's task sum shrinks to
/// match (the DB genuinely lost the row). prob = 0 is inert.
struct DropSampleFaultSpec {
  double prob = 0.0;
};

/// Each chare's load-DB record is independently replaced by the previous
/// window's value with `prob` (a stale read that missed the last update).
/// No-op on the first window. prob = 0 is inert.
struct StaleSampleFaultSpec {
  double prob = 0.0;
};

/// How a corrupted background-estimator reading manifests.
enum class CorruptMode {
  kNegative,  ///< idle inflated past wall: Eq. 2 yields a negative O_p
  kNan,       ///< idle reads NaN (failed /proc/stat style parse)
  kOverflow,  ///< idle reads a huge negative number: O_p overflows upward
  kMixed,     ///< one of the above, drawn per corruption
};

/// Each PE's host idle counter is independently corrupted with `prob`,
/// producing the garbage O_p values the estimator and LB must survive.
/// prob = 0 is inert.
struct CorruptEstimatorFaultSpec {
  double prob = 0.0;
  CorruptMode mode = CorruptMode::kMixed;
};

/// Per-PE clock jitter: wall and idle readings of every PE sample are
/// perturbed by independent N(0, sigma) seconds, clamped at 0. Models
/// unsynchronized per-core clocks and jiffy-resolution reads; makes the
/// Eq. 2 subtraction go slightly negative or inconsistent. sigma = 0 is
/// inert.
struct ClockJitterFaultSpec {
  double sigma_sec = 0.0;
};

/// Each migration attempt independently fails with `prob`; a failing
/// attempt fails after the transfer (a partial migration — state arrived
/// but could not be installed) with conditional probability `partial`,
/// otherwise at the source before anything left. prob = 0 is inert.
struct MigrationFaultSpec {
  double prob = 0.0;
  double partial = 0.5;
};

/// A parsed, validated fault plan: any number of each model, plus the
/// master seed every stochastic model derives its stream from.
///
/// Spec grammar (see docs/fault-injection.md):
///
///   spec   := model (';' model)*
///   model  := name [ '(' kv (',' kv)* ')' ]
///   kv     := key '=' value
///
/// e.g. "spike(core=2,start=0.5,duration=1);drop(prob=0.1);seed(value=42)"
/// Durations are plain seconds. Unknown models or keys throw CheckFailure
/// (like an unknown CLI flag, typos must not silently disable a fault).
/// parse() keeps zero-intensity models (so a spec sweep can include the
/// zero point); FaultInjector prunes them from its copy at construction,
/// so the injector's plan() reflects only the models that can fire.
struct FaultPlan {
  std::vector<SpikeFaultSpec> spikes;
  std::vector<SquareWaveFaultSpec> squares;
  std::vector<ParetoFaultSpec> paretos;
  std::vector<DropSampleFaultSpec> drops;
  std::vector<StaleSampleFaultSpec> stales;
  std::vector<CorruptEstimatorFaultSpec> corruptions;
  std::vector<ClockJitterFaultSpec> jitters;
  std::vector<MigrationFaultSpec> migration_faults;
  std::uint64_t seed = 1;

  /// Parses the grammar above; throws CheckFailure on malformed input.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  [[nodiscard]] bool empty() const {
    return spikes.empty() && squares.empty() && paretos.empty() &&
           drops.empty() && stales.empty() && corruptions.empty() &&
           jitters.empty() && migration_faults.empty();
  }
};

}  // namespace cloudlb
