#include <gtest/gtest.h>

#include "machine/core.h"
#include "machine/machine.h"
#include "machine/power.h"
#include "sim/simulator.h"
#include "util/check.h"

namespace cloudlb {
namespace {

constexpr double kTol = 1e-6;  // seconds; covers ns rounding in the core

class CoreTest : public ::testing::Test {
 protected:
  Simulator sim;
};

TEST_F(CoreTest, SingleContextRunsAtFullSpeed) {
  Core core{sim, 0};
  const ContextId ctx = core.register_context("a");
  SimTime done;
  core.demand(ctx, SimTime::seconds(1), [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done.to_seconds(), 1.0, kTol);
  EXPECT_NEAR(core.context_cpu_time(ctx).to_seconds(), 1.0, kTol);
}

TEST_F(CoreTest, SpeedScalesWallTime) {
  Core core{sim, 0, 2.0};
  const ContextId ctx = core.register_context("a");
  SimTime done;
  core.demand(ctx, SimTime::seconds(1), [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done.to_seconds(), 0.5, kTol);
}

TEST_F(CoreTest, TwoEqualContextsShareFairly) {
  Core core{sim, 0};
  const ContextId a = core.register_context("a");
  const ContextId b = core.register_context("b");
  SimTime done_a, done_b;
  core.demand(a, SimTime::seconds(1), [&] { done_a = sim.now(); });
  core.demand(b, SimTime::seconds(1), [&] { done_b = sim.now(); });
  sim.run();
  // Both progress at rate 1/2 → both finish at ~2 s.
  EXPECT_NEAR(done_a.to_seconds(), 2.0, kTol);
  EXPECT_NEAR(done_b.to_seconds(), 2.0, kTol);
}

TEST_F(CoreTest, WeightedSharing) {
  Core core{sim, 0};
  const ContextId light = core.register_context("light", 1.0);
  const ContextId heavy = core.register_context("heavy", 3.0);
  SimTime done_light, done_heavy;
  core.demand(light, SimTime::seconds(1), [&] { done_light = sim.now(); });
  core.demand(heavy, SimTime::seconds(1), [&] { done_heavy = sim.now(); });
  sim.run();
  // heavy at 3/4 rate finishes at 4/3 s; light then runs alone:
  // consumed 1/3 by then, 2/3 left → finishes at 4/3 + 2/3 = 2 s.
  EXPECT_NEAR(done_heavy.to_seconds(), 4.0 / 3.0, kTol);
  EXPECT_NEAR(done_light.to_seconds(), 2.0, kTol);
}

TEST_F(CoreTest, LateArrivalSlowsInProgressWork) {
  Core core{sim, 0};
  const ContextId a = core.register_context("a");
  const ContextId b = core.register_context("b");
  SimTime done_a, done_b;
  core.demand(a, SimTime::seconds(2), [&] { done_a = sim.now(); });
  sim.schedule_at(SimTime::seconds(1), [&] {
    core.demand(b, SimTime::seconds(1), [&] { done_b = sim.now(); });
  });
  sim.run();
  // a runs alone for 1 s (1 s left), then shares: both need 1 CPU-s at
  // rate 1/2 → both finish at t = 3 s.
  EXPECT_NEAR(done_a.to_seconds(), 3.0, kTol);
  EXPECT_NEAR(done_b.to_seconds(), 3.0, kTol);
}

TEST_F(CoreTest, AccountingMidFlight) {
  Core core{sim, 0};
  const ContextId a = core.register_context("a");
  const ContextId b = core.register_context("b");
  core.demand(a, SimTime::seconds(4), [] {});
  core.demand(b, SimTime::seconds(4), [] {});
  sim.run_until(SimTime::seconds(1));
  EXPECT_NEAR(core.context_cpu_time(a).to_seconds(), 0.5, kTol);
  EXPECT_NEAR(core.context_cpu_time(b).to_seconds(), 0.5, kTol);
  EXPECT_NEAR(core.proc_stat().busy.to_seconds(), 1.0, kTol);
  EXPECT_NEAR(core.proc_stat().idle.to_seconds(), 0.0, kTol);
}

TEST_F(CoreTest, IdleTimeAccumulatesInGaps) {
  Core core{sim, 0};
  const ContextId ctx = core.register_context("a");
  core.demand(ctx, SimTime::seconds(1), [] {});
  sim.run();
  sim.run_until(SimTime::seconds(3));  // 2 s of nothing
  core.demand(ctx, SimTime::seconds(1), [] {});
  sim.run();
  const ProcStat st = core.proc_stat();
  EXPECT_NEAR(st.busy.to_seconds(), 2.0, kTol);
  EXPECT_NEAR(st.idle.to_seconds(), 2.0, kTol);
}

TEST_F(CoreTest, ZeroDemandCompletesPromptly) {
  Core core{sim, 0};
  const ContextId ctx = core.register_context("a");
  bool fired = false;
  core.demand(ctx, SimTime::zero(), [&] { fired = true; });
  EXPECT_FALSE(fired);  // delivered via event, not synchronously
  sim.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sim.now(), SimTime::zero());
}

TEST_F(CoreTest, DoubleDemandOnSameContextRejected) {
  Core core{sim, 0};
  const ContextId ctx = core.register_context("a");
  core.demand(ctx, SimTime::seconds(1), [] {});
  EXPECT_THROW(core.demand(ctx, SimTime::seconds(1), [] {}), CheckFailure);
}

TEST_F(CoreTest, HasDemandTracksLifetime) {
  Core core{sim, 0};
  const ContextId ctx = core.register_context("a");
  EXPECT_FALSE(core.has_demand(ctx));
  core.demand(ctx, SimTime::seconds(1), [] {});
  EXPECT_TRUE(core.has_demand(ctx));
  sim.run();
  EXPECT_FALSE(core.has_demand(ctx));
}

TEST_F(CoreTest, SetWeightMidFlightChangesRates) {
  Core core{sim, 0};
  const ContextId a = core.register_context("a", 1.0);
  const ContextId b = core.register_context("b", 1.0);
  SimTime done_a;
  core.demand(a, SimTime::seconds(1), [&] { done_a = sim.now(); });
  core.demand(b, SimTime::seconds(10), [] {});
  sim.run_until(SimTime::seconds(1));  // a consumed 0.5 so far
  core.set_weight(a, 3.0);             // now a runs at 3/4
  sim.run_until(SimTime::seconds(2));
  // 0.5 remaining at rate 3/4 → finishes at 1 + 2/3 s.
  EXPECT_NEAR(done_a.to_seconds(), 1.0 + 2.0 / 3.0, kTol);
}

TEST_F(CoreTest, ContextChainNoRecursionBlowup) {
  Core core{sim, 0};
  const ContextId ctx = core.register_context("a");
  int remaining = 20'000;
  std::function<void()> next = [&] {
    if (--remaining > 0) core.demand(ctx, SimTime::zero(), next);
  };
  core.demand(ctx, SimTime::zero(), next);
  sim.run();
  EXPECT_EQ(remaining, 0);
}

TEST_F(CoreTest, ChunkedConsumptionMatchesContinuous) {
  // 10 × 100 ms chunks back to back behave like one 1 s demand.
  Core core{sim, 0};
  const ContextId a = core.register_context("a");
  const ContextId b = core.register_context("b");
  core.demand(b, SimTime::seconds(10), [] {});
  int chunks = 10;
  SimTime done_a;
  std::function<void()> next = [&] {
    if (--chunks > 0) {
      core.demand(a, SimTime::millis(100), next);
    } else {
      done_a = sim.now();
    }
  };
  core.demand(a, SimTime::millis(100), next);
  sim.run();
  EXPECT_NEAR(done_a.to_seconds(), 2.0, 1e-4);  // shared 2-way throughout
}

TEST_F(CoreTest, RegisterValidation) {
  Core core{sim, 0};
  EXPECT_THROW(core.register_context("bad", 0.0), CheckFailure);
  EXPECT_THROW(core.register_context("bad", -1.0), CheckFailure);
  const ContextId ctx = core.register_context("ok");
  EXPECT_THROW(core.demand(ctx, SimTime::seconds(-1), [] {}), CheckFailure);
  EXPECT_THROW(core.demand(ctx + 1, SimTime::zero(), [] {}), CheckFailure);
  EXPECT_EQ(core.context_name(ctx), "ok");
}

// ---------------------------------------------------------------- Machine

TEST(MachineTest, TopologyIndexing) {
  Simulator sim;
  Machine m{sim, MachineConfig{.nodes = 3, .cores_per_node = 4, .core_speed_overrides = {}}};
  EXPECT_EQ(m.num_cores(), 12);
  EXPECT_EQ(m.node_of(0), 0);
  EXPECT_EQ(m.node_of(3), 0);
  EXPECT_EQ(m.node_of(4), 1);
  EXPECT_EQ(m.node_of(11), 2);
  EXPECT_TRUE(m.same_node(4, 7));
  EXPECT_FALSE(m.same_node(3, 4));
  EXPECT_EQ(m.core(5).id(), 5);
}

TEST(MachineTest, BoundsChecked) {
  Simulator sim;
  Machine m{sim, MachineConfig{.nodes = 1, .cores_per_node = 2, .core_speed_overrides = {}}};
  EXPECT_THROW(m.core(2), CheckFailure);
  EXPECT_THROW(m.core(-1), CheckFailure);
  EXPECT_THROW(m.node_of(99), CheckFailure);
}

TEST(MachineTest, PerCoreSpeedOverrides) {
  Simulator sim;
  MachineConfig config{.nodes = 1, .cores_per_node = 4, .core_speed_overrides = {}};
  config.core_speed_overrides = {{1, 0.5}, {3, 2.0}};
  Machine m{sim, config};
  EXPECT_DOUBLE_EQ(m.core(0).speed(), 1.0);
  EXPECT_DOUBLE_EQ(m.core(1).speed(), 0.5);
  EXPECT_DOUBLE_EQ(m.core(2).speed(), 1.0);
  EXPECT_DOUBLE_EQ(m.core(3).speed(), 2.0);
}

TEST(MachineTest, NonPositiveSpeedOverrideRejected) {
  Simulator sim;
  MachineConfig config{.nodes = 1, .cores_per_node = 2, .core_speed_overrides = {}};
  config.core_speed_overrides = {{0, 0.0}};
  EXPECT_THROW(Machine(sim, config), CheckFailure);
}

TEST(MachineTest, InvalidConfigRejected) {
  Simulator sim;
  EXPECT_THROW(Machine(sim, MachineConfig{.nodes = 0, .cores_per_node = 4, .core_speed_overrides = {}}),
               CheckFailure);
}

// -------------------------------------------------------------- PowerMeter

TEST(PowerMeterTest, IdleMachineDrawsBasePower) {
  Simulator sim;
  Machine m{sim, MachineConfig{.nodes = 2, .cores_per_node = 4, .core_speed_overrides = {}}};
  PowerMeter meter{sim, m};
  meter.start();
  sim.run_until(SimTime::seconds(10));
  meter.stop();
  EXPECT_NEAR(meter.energy_joules(), 2 * 40.0 * 10.0, 1e-6);
  EXPECT_NEAR(meter.average_power_watts(), 80.0, 1e-9);
}

TEST(PowerMeterTest, BusyCoreAddsDynamicPower) {
  Simulator sim;
  Machine m{sim, MachineConfig{.nodes = 1, .cores_per_node = 4, .core_speed_overrides = {}}};
  const ContextId ctx = m.core(0).register_context("hog");
  PowerMeter meter{sim, m};
  meter.start();
  m.core(0).demand(ctx, SimTime::seconds(10), [] {});
  sim.run_until(SimTime::seconds(10));
  meter.stop();
  EXPECT_NEAR(meter.energy_joules(), 40.0 * 10.0 + 32.5 * 10.0, 1e-3);
  EXPECT_NEAR(meter.average_power_watts(), 72.5, 1e-3);
}

TEST(PowerMeterTest, FullyLoadedQuadCoreNodeHitsPeak) {
  // The paper's testbed: 40 W base, 170 W flat out.
  Simulator sim;
  Machine m{sim, MachineConfig{.nodes = 1, .cores_per_node = 4, .core_speed_overrides = {}}};
  for (CoreId c = 0; c < 4; ++c) {
    const ContextId ctx = m.core(c).register_context("hog");
    m.core(c).demand(ctx, SimTime::seconds(5), [] {});
  }
  PowerMeter meter{sim, m};
  meter.start();
  sim.run_until(SimTime::seconds(5));
  meter.stop();
  EXPECT_NEAR(meter.average_power_watts(), 170.0, 1e-3);
}

TEST(PowerMeterTest, StopFreezesWindow) {
  Simulator sim;
  Machine m{sim, MachineConfig{.nodes = 1, .cores_per_node = 1, .core_speed_overrides = {}}};
  PowerMeter meter{sim, m};
  meter.start();
  sim.run_until(SimTime::seconds(2));
  meter.stop();
  const double e = meter.energy_joules();
  sim.run_until(SimTime::seconds(10));
  EXPECT_DOUBLE_EQ(meter.energy_joules(), e);
  EXPECT_EQ(meter.window(), SimTime::seconds(2));
}

TEST(PowerMeterTest, DoubleStartRejected) {
  Simulator sim;
  Machine m{sim, MachineConfig{.nodes = 1, .cores_per_node = 1, .core_speed_overrides = {}}};
  PowerMeter meter{sim, m};
  meter.start();
  EXPECT_THROW(meter.start(), CheckFailure);
  meter.stop();
  meter.stop();  // idempotent
}

}  // namespace
}  // namespace cloudlb
