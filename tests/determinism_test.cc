// Golden determinism test for the event engine. The slot arena, the 4-ary
// heap, and the lazy-cancellation scheme must never change WHICH events
// execute or in what order — only how fast. This test runs a full
// Jacobi2D + ia-refine scenario with a 2-core interferer, hashes the
// (time, sequence-number) execution trace, and pins the digest.
//
// If an engine change breaks this test, it changed observable scheduling
// semantics, not just performance. Either find the bug, or — if the
// reordering is intended and argued for in docs/event-engine.md — update
// kGoldenTraceDigest in the same commit that documents why.

#include <gtest/gtest.h>

#include <cstdint>

#include <memory>
#include <string>

#include "apps/jacobi2d.h"
#include "apps/wave2d.h"
#include "core/balancer_factory.h"
#include "faults/fault_injector.h"
#include "lb/null_lb.h"
#include "machine/machine.h"
#include "runtime/job.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "vm/virtual_machine.h"

namespace cloudlb {
namespace {

/// FNV-1a over the little-endian bytes of each word.
class TraceHash {
 public:
  void mix(std::uint64_t word) {
    for (int b = 0; b < 8; ++b) {
      digest_ ^= (word >> (8 * b)) & 0xffu;
      digest_ *= 1099511628211ull;
    }
  }
  std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t digest_ = 1469598103934665603ull;
};

/// The paper's core setting, shrunk to test size: Jacobi2D on 4 cores
/// under ia-refine, a 2-core Wave2D background job interfering on cores
/// 2-3. Exercises messaging, barriers, LB migration, and timer churn.
///
/// A non-empty `fault_spec` wires a FaultInjector (plus migration retries)
/// into the app job — the differential-degradation pin: a spec whose every
/// model is at zero intensity must leave this digest untouched.
std::uint64_t traced_scenario_digest(const std::string& fault_spec = {}) {
  Simulator sim;
  TraceHash hash;
  sim.set_trace_hook([&hash](SimTime time, std::uint64_t seq) {
    hash.mix(static_cast<std::uint64_t>(time.ns()));
    hash.mix(seq);
  });

  MachineConfig mc;
  mc.nodes = 1;
  mc.cores_per_node = 4;
  Machine machine{sim, mc};

  std::unique_ptr<FaultInjector> faults;
  if (!fault_spec.empty())
    faults = std::make_unique<FaultInjector>(FaultPlan::parse(fault_spec));

  VirtualMachine app_vm{machine, "jacobi2d", {0, 1, 2, 3}};
  JobConfig app_config;
  app_config.name = "jacobi2d";
  app_config.lb_period = 3;
  if (faults != nullptr) {
    app_config.faults = faults.get();
    app_config.migration_max_retries = 3;
  }
  RuntimeJob app{sim, app_vm, app_config, make_balancer("ia-refine")};
  Jacobi2dConfig jc;
  jc.layout.grid_x = 64;
  jc.layout.grid_y = 64;
  jc.layout.blocks_x = 8;
  jc.layout.blocks_y = 4;
  jc.layout.iterations = 20;
  populate_jacobi2d(app, jc);

  VirtualMachine bg_vm{machine, "bg", {2, 3}};
  JobConfig bg_config;
  bg_config.name = "bg";
  bg_config.lb_period = 0;
  RuntimeJob bg{sim, bg_vm, bg_config, std::make_unique<NullLb>()};
  Wave2dConfig wc;
  wc.layout.grid_x = 64;
  wc.layout.grid_y = 64;
  wc.layout.blocks_x = 4;
  wc.layout.blocks_y = 2;
  wc.layout.iterations = 30;
  populate_wave2d(bg, wc);

  if (faults != nullptr) faults->install_interference(sim, machine);

  app.start();
  bg.start();
  while (!app.finished()) CLB_CHECK(sim.step());
  return hash.digest();
}

/// One clause of every fault model, all at zero intensity. The injector
/// must prune them all and behave as if it did not exist.
constexpr const char* kZeroIntensitySpec =
    "spike(core=1,start=0.1,duration=0);"
    "square(core=0,start=0.2,period=1,on=0);"
    "pareto(cores=0);"
    "drop(prob=0);stale(prob=0);corrupt(prob=0);"
    "jitter(sigma=0);failmig(prob=0);seed(value=42)";

// Pinned digest of the scenario above. Recompute by running this test and
// reading the "actual" value — but first read the header comment. Last
// re-pinned when runtime services started reaching their PE's engine by a
// zero-delay event (docs/event-engine.md, "Digest history").
constexpr std::uint64_t kGoldenTraceDigest = 0xfc41afd02d2a499bull;

TEST(DeterminismTest, TraceIsReproducibleWithinProcess) {
  EXPECT_EQ(traced_scenario_digest(), traced_scenario_digest());
}

TEST(DeterminismTest, TraceMatchesGoldenDigest) {
  EXPECT_EQ(traced_scenario_digest(), kGoldenTraceDigest);
}

// Differential degradation: wrapping the scenario with a zero-intensity
// fault plan (every model present, every intensity zero, plus migration
// retries armed) must produce a byte-identical execution trace. If this
// fails, some fault path leaks into faultless runs — an RNG draw, a
// scheduled event, a perturbed stat.
TEST(DeterminismTest, ZeroIntensityFaultWrapIsByteIdentical) {
  FaultInjector probe{FaultPlan::parse(kZeroIntensitySpec)};
  ASSERT_TRUE(probe.inert());
  EXPECT_EQ(traced_scenario_digest(kZeroIntensitySpec), kGoldenTraceDigest);
}

// And the converse: a live fault plan must actually perturb the trace —
// otherwise the injector is wired to nothing.
TEST(DeterminismTest, LiveFaultPlanPerturbsTheTrace) {
  EXPECT_NE(traced_scenario_digest(
                "spike(core=2,start=0.01,duration=0.5);seed(value=42)"),
            kGoldenTraceDigest);
}

}  // namespace
}  // namespace cloudlb
