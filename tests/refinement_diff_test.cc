// Differential harness for the refinement engine: the indexed
// O((T+M)·log P) production kernel (refinement.cc) must produce the same
// migration schedule as the retained naive O(donors·T·|underset|) reference
// (support/refinement_naive.cc) on randomized instances spanning machine sizes,
// overdecomposition ratios, background-load shapes, ε values, tie-break
// modes and migration caps. Beyond the acceptance bar (equal migration
// count, max load within 1e-9) the harness asserts bit-identical
// assignments — the two kernels share their floating-point setup, so any
// divergence is a selection-logic bug, not rounding.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lb/refinement.h"
#include "support/refinement_naive.h"
#include "util/rng.h"

namespace cloudlb {
namespace {

enum class BgShape { kNone, kUniform, kHotspot, kHeavyTail };

LbStats random_instance(Rng& rng, int pes, int chares, BgShape shape,
                        std::vector<double>* external) {
  LbStats stats;
  stats.pes.resize(static_cast<std::size_t>(pes));
  external->assign(static_cast<std::size_t>(pes), 0.0);
  for (int p = 0; p < pes; ++p) {
    auto& pe = stats.pes[static_cast<std::size_t>(p)];
    pe.pe = p;
    pe.core = p;
    pe.wall_sec = 100.0;
    switch (shape) {
      case BgShape::kNone:
        break;
      case BgShape::kUniform:
        (*external)[static_cast<std::size_t>(p)] = rng.uniform(0.0, 2.0);
        break;
      case BgShape::kHotspot:
        // A few PEs carry nearly all the interference (the paper's
        // co-located-VM scenario).
        if (rng.next_double() < 0.1)
          (*external)[static_cast<std::size_t>(p)] = rng.uniform(5.0, 20.0);
        break;
      case BgShape::kHeavyTail:
        if (rng.next_double() < 0.4)
          (*external)[static_cast<std::size_t>(p)] =
              rng.exponential(3.0);
        break;
    }
  }
  stats.chares.resize(static_cast<std::size_t>(chares));
  for (int c = 0; c < chares; ++c) {
    auto& ch = stats.chares[static_cast<std::size_t>(c)];
    ch.chare = c;
    // Skewed initial placement exercises long donor chains.
    const bool skew = rng.next_double() < 0.3;
    ch.pe = static_cast<PeId>(
        skew ? rng.uniform_int(0, std::max(1, pes / 4) - 1)
             : rng.uniform_int(0, pes - 1));
    // Mix of zero-cost, uniform and duplicate-cost tasks (duplicates stress
    // the tie-break paths).
    const double roll = rng.next_double();
    if (roll < 0.05) {
      ch.cpu_sec = 0.0;
    } else if (roll < 0.25) {
      ch.cpu_sec = 1.0;  // many exact ties
    } else {
      ch.cpu_sec = rng.uniform(0.01, 3.0);
    }
    ch.bytes = 1024;
    stats.pes[static_cast<std::size_t>(ch.pe)].task_cpu_sec += ch.cpu_sec;
  }
  for (int p = 0; p < pes; ++p) {
    auto& pe = stats.pes[static_cast<std::size_t>(p)];
    pe.core_idle_sec =
        std::max(0.0, pe.wall_sec - pe.task_cpu_sec -
                          (*external)[static_cast<std::size_t>(p)]);
  }
  return stats;
}

double max_load_of(const LbStats& stats, const std::vector<PeId>& assignment,
                   const std::vector<double>& external) {
  std::vector<double> load(external);
  for (auto& l : load) l = std::max(l, 0.0);
  for (std::size_t c = 0; c < assignment.size(); ++c)
    load[static_cast<std::size_t>(assignment[c])] += stats.chares[c].cpu_sec;
  return load.empty() ? 0.0 : *std::max_element(load.begin(), load.end());
}

// Shards the ≥1000-instance sweep so failures name a reproducible range
// and ctest can run shards in parallel.
class RefinementDifferentialTest : public ::testing::TestWithParam<int> {};

constexpr int kShards = 8;
constexpr int kInstancesPerShard = 128;  // 8 × 128 = 1024 instances total

TEST_P(RefinementDifferentialTest, IndexedEngineMatchesNaiveReference) {
  const int shard = GetParam();
  constexpr double kEpsilons[] = {0.0, 0.01, 0.05, 0.15, 0.3};

  for (int i = 0; i < kInstancesPerShard; ++i) {
    const int instance = shard * kInstancesPerShard + i;
    Rng rng{static_cast<std::uint64_t>(instance) * 2654435761ull + 17};

    const int pes = static_cast<int>(rng.uniform_int(1, 64));
    const int chares = static_cast<int>(rng.uniform_int(0, pes * 10));
    const auto shape = static_cast<BgShape>(instance % 4);

    std::vector<double> external;
    const LbStats stats =
        random_instance(rng, pes, chares, shape, &external);

    RefinementOptions options;
    options.epsilon_fraction =
        kEpsilons[static_cast<std::size_t>(instance) % std::size(kEpsilons)];
    options.tie_break = (instance / 4) % 2 == 0
                            ? RefinementTieBreak::kLowestId
                            : RefinementTieBreak::kHighestId;
    if (rng.next_double() < 0.25)
      options.max_migrations = static_cast<int>(rng.uniform_int(0, 16));

    const RefinementResult indexed =
        refine_assignment(stats, external, options);
    const RefinementResult naive =
        refine_assignment_naive(stats, external, options);

    ASSERT_EQ(indexed.migrations, naive.migrations)
        << "instance " << instance << " (P=" << pes << " T=" << chares
        << " eps=" << options.epsilon_fraction << ")";
    ASSERT_EQ(indexed.assignment, naive.assignment)
        << "instance " << instance;
    ASSERT_EQ(indexed.fully_balanced, naive.fully_balanced)
        << "instance " << instance;
    ASSERT_NEAR(indexed.max_load, naive.max_load, 1e-9)
        << "instance " << instance;

    // Both agree with an independent recomputation of the makespan.
    ASSERT_NEAR(indexed.max_load,
                max_load_of(stats, indexed.assignment, external), 1e-9)
        << "instance " << instance;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, RefinementDifferentialTest,
                         ::testing::Range(0, kShards));

// A handful of adversarial non-random instances the sweep is unlikely to
// hit: all load on one PE, all-equal costs, receivers exactly at the ε
// boundary, and a single-PE machine.
TEST(RefinementDifferentialTest, AdversarialEdgeInstances) {
  struct Case {
    int pes;
    std::vector<double> cpu;
    std::vector<PeId> assign;
    std::vector<double> external;
    double eps;
  };
  const std::vector<Case> cases = {
      {4, {1, 1, 1, 1, 1, 1, 1, 1}, {0, 0, 0, 0, 0, 0, 0, 0}, {0, 0, 0, 0}, 0.05},
      {3, {2, 2, 2}, {0, 0, 0}, {0, 0, 6}, 0.0},
      {2, {1.05, 1.0}, {0, 1}, {0, 0}, 0.05},  // boundary: deviation == ε·T_avg
      {1, {5, 5}, {0, 0}, {0}, 0.05},          // single PE: nowhere to move
      {5, {}, {}, {1, 2, 3, 4, 5}, 0.1},       // no chares at all
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& cs = cases[k];
    LbStats stats;
    stats.pes.resize(static_cast<std::size_t>(cs.pes));
    for (int p = 0; p < cs.pes; ++p) {
      stats.pes[static_cast<std::size_t>(p)].pe = p;
      stats.pes[static_cast<std::size_t>(p)].wall_sec = 100.0;
    }
    stats.chares.resize(cs.cpu.size());
    for (std::size_t c = 0; c < cs.cpu.size(); ++c) {
      stats.chares[c].chare = static_cast<ChareId>(c);
      stats.chares[c].pe = cs.assign[c];
      stats.chares[c].cpu_sec = cs.cpu[c];
    }
    RefinementOptions options;
    options.epsilon_fraction = cs.eps;
    const auto indexed = refine_assignment(stats, cs.external, options);
    const auto naive = refine_assignment_naive(stats, cs.external, options);
    EXPECT_EQ(indexed.migrations, naive.migrations) << "case " << k;
    EXPECT_EQ(indexed.assignment, naive.assignment) << "case " << k;
    EXPECT_NEAR(indexed.max_load, naive.max_load, 1e-9) << "case " << k;
  }
}

}  // namespace
}  // namespace cloudlb
