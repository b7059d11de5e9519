#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cloudlb {

using PeId = std::int32_t;
using ChareId = std::int32_t;

/// Per-PE measurements accumulated since the previous load-balancing step —
/// the simulated equivalent of the Charm++ LB database plus the host's
/// `/proc/stat` counters the paper samples.
///
/// All durations are in seconds over the LB window. `wall_sec` is T_lb in
/// the paper's Eq. 2; `core_idle_sec` is t_idle (idle time of the *physical
/// core*, which is near zero when an interfering VM keeps the core busy);
/// `task_cpu_sec` is Σ_i t_p_i, the CPU consumed by the application's own
/// tasks.
struct PeSample {
  PeId pe = 0;
  std::int32_t core = 0;       ///< physical core id (for placement-aware LBs)
  double wall_sec = 0.0;       ///< T_lb: wall-clock length of the window
  double core_idle_sec = 0.0;  ///< t_idle from the host core's /proc/stat
  double task_cpu_sec = 0.0;   ///< Σ t_p_i from the LB database
};

/// Per-chare measurement over the LB window.
struct ChareSample {
  ChareId chare = 0;
  PeId pe = 0;                 ///< current host PE
  double cpu_sec = 0.0;        ///< CPU consumed by this chare's tasks
  std::size_t bytes = 0;       ///< serialized size, for migration cost
};

/// Input to a load-balancing strategy.
struct LbStats {
  std::vector<PeSample> pes;       ///< indexed by PE id
  std::vector<ChareSample> chares; ///< indexed by chare id

  /// Current assignment as a dense vector: chare -> PE.
  std::vector<PeId> current_assignment() const;

  /// Sanity-checks internal consistency (ids dense, PEs valid).
  void validate() const;
};

/// Strategy interface. Given the measured window, returns the new
/// chare -> PE assignment (dense, same length as stats.chares). Returning
/// the current assignment means "no migrations".
///
/// Strategies must be deterministic functions of (stats, their own config
/// and RNG state) — the runtime calls them at a global barrier, so they
/// see a consistent snapshot.
class LoadBalancer {
 public:
  virtual ~LoadBalancer() = default;
  virtual std::string name() const = 0;
  virtual std::vector<PeId> assign(const LbStats& stats) = 0;
};

/// How a balancer turns the per-PE background series (Eq. 2) into the
/// load it balances against (see docs/estimators.md). kPersist is the
/// paper's principle of persistence — the last window, verbatim; the
/// other modes forecast one window ahead so refinement can migrate
/// *before* a predicted spike lands.
enum class EstimatorMode {
  kPersist,  ///< last window predicts the next (the paper's scheme)
  kEwma,     ///< exponentially weighted level, flat forecast
  kTrend,    ///< Holt-style level + velocity, linear forecast
  kRegress,  ///< windowed least-squares line fit
};

/// Degradation behaviour under hostile measurements (see
/// docs/fault-injection.md). Everything defaults to off, so faultless
/// runs are bit-identical to the paper's scheme.
struct LbRobustnessOptions {
  /// When the stats snapshot fails the sanity test (non-finite or
  /// physically impossible PE counters), keep the current assignment —
  /// the last one a good window produced — instead of balancing on
  /// garbage.
  bool fallback_on_insane_stats = false;

  /// Window length of the background estimator's median-of-window outlier
  /// clamp; 0 disables it (the paper's raw last-window estimate).
  int estimator_window = 0;

  /// Ceiling multiplier of the outlier clamp: a new estimate may exceed
  /// the window median by at most this factor (plus a small slack).
  double estimator_clamp_factor = 4.0;

  /// Forecasting mode layered on top of the (optionally clamped) Eq. 2
  /// series: the clamp runs first, the forecaster sees the clamped
  /// values. kPersist leaves the series untouched — byte-identical to
  /// the paper's behaviour, pinned by the golden trace digest.
  EstimatorMode estimator_mode = EstimatorMode::kPersist;

  /// How far ahead the forecaster extrapolates, in LB windows. 1.0 is
  /// "the next window" (the horizon refinement actually balances for).
  double forecast_horizon = 1.0;

  /// Confidence-band multiplier added to the prediction: the balancer
  /// plans against `predicted + margin · band`, trading a little
  /// pessimism for fewer mispredict-triggered re-migrations. 0 plans
  /// against the point prediction alone.
  double forecast_margin = 0.0;
};

/// Tuning shared by the refinement-style strategies.
struct LbOptions {
  /// ε in the paper's Eq. 3, expressed as a fraction of T_avg: a PE is
  /// over/underloaded when it deviates from the average by more than
  /// `epsilon_fraction · T_avg`.
  double epsilon_fraction = 0.05;

  /// Hard cap on migrations per LB invocation for refinement-style
  /// strategies; negative means unlimited. Bounds the per-step migration
  /// burst (pack/transfer/unpack traffic) on large machines.
  int max_migrations = -1;

  /// Seed for randomized strategies.
  std::uint64_t seed = 1;

  /// What one byte of chare state costs to migrate end-to-end
  /// (pack + transfer + unpack), used by cost-gated strategies. The
  /// default matches the library's default migration model (~1 ns/B pack,
  /// ~1 ns/B unpack, ~1 GB/s network).
  double migration_sec_per_byte_hint = 3e-9;

  LbRobustnessOptions robustness;
};

}  // namespace cloudlb
