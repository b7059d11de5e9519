#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "faults/fault_injector.h"
#include "faults/fault_spec.h"
#include "lb/framework.h"
#include "lb/greedy_lb.h"
#include "lb/null_lb.h"
#include "lb/refinement.h"
#include "lb/refinement_internal.h"
#include "machine/machine.h"
#include "runtime/chare.h"
#include "runtime/job.h"
#include "runtime/network.h"
#include "runtime/shard_partition.h"
#include "runtime/sharded_runtime.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/sim_time.h"
#include "util/validate.h"
#include "vm/virtual_machine.h"

namespace cloudlb {

// Friend-declared corruption seams: the deep validators exist to catch
// structural damage that no public API can produce, so the tests reach
// into private state to inflict exactly that damage.
struct SimulatorTestAccess {
  static std::vector<Simulator::QueueEntry>& queue(Simulator& sim) {
    return sim.queue_;
  }
  static std::vector<Simulator::QueueEntry>& lane(Simulator& sim) {
    return sim.lane_;
  }
  static std::vector<Simulator::Slot>& slots(Simulator& sim) {
    return sim.slots_;
  }
  static std::uint32_t free_head(const Simulator& sim) {
    return sim.free_head_;
  }
  static std::size_t& stale(Simulator& sim) { return sim.stale_; }
  static SimTime& now(Simulator& sim) { return sim.now_; }
};

struct RuntimeJobTestAccess {
  static std::vector<PeId>& assignment(RuntimeJob& job) {
    return job.assignment_;
  }
  static std::vector<std::uint8_t>& chare_done(RuntimeJob& job) {
    return job.chare_done_;
  }
  static ShardPartition& partition(RuntimeJob& job) {
    CLB_CHECK(job.part_ != nullptr);
    return *job.part_;
  }
};

namespace {

/// Self-messaging worker; AtSync every lb_period iterations.
class WorkerChare final : public Chare {
 public:
  WorkerChare(int iterations, SimTime task_cost)
      : iterations_{iterations}, task_cost_{task_cost} {}

  void on_start() override { send(id(), 0, {}); }
  SimTime cost(const Message&) const override { return task_cost_; }
  void execute(Message&) override {
    ++iter_;
    if (iter_ >= iterations_) {
      finish();
      return;
    }
    const int period = job().lb_period();
    if (period > 0 && iter_ % period == 0) {
      at_sync();
    } else {
      send(id(), 0, {});
    }
  }
  void on_resume_sync() override { send(id(), 0, {}); }
  std::size_t footprint_bytes() const override { return 4096; }

 private:
  int iterations_;
  SimTime task_cost_;
  int iter_ = 0;
};

struct Rig {
  explicit Rig(int cores, std::unique_ptr<LoadBalancer> lb = nullptr,
               JobConfig config = JobConfig{})
      : machine{sim, MachineConfig{.nodes = 1,
                                   .cores_per_node = cores,
                                   .core_speed_overrides = {}}} {
    std::vector<CoreId> ids(static_cast<std::size_t>(cores));
    std::iota(ids.begin(), ids.end(), 0);
    vm = std::make_unique<VirtualMachine>(machine, "app", ids);
    if (lb == nullptr) lb = std::make_unique<NullLb>();
    job = std::make_unique<RuntimeJob>(sim, *vm, std::move(config),
                                       std::move(lb));
  }

  Simulator sim;
  Machine machine;
  std::unique_ptr<VirtualMachine> vm;
  std::unique_ptr<RuntimeJob> job;
};

// ------------------------------------------------------ toggle semantics

TEST(ValidationToggleTest, ScopeSetsAndRestores) {
  const bool before = validation_enabled();
  {
    ValidationScope on{true};
    EXPECT_TRUE(validation_enabled());
    {
      ValidationScope off{false};
      EXPECT_FALSE(validation_enabled());
    }
    EXPECT_TRUE(validation_enabled());
  }
  EXPECT_EQ(validation_enabled(), before);
}

TEST(ValidationToggleTest, SetReturnsPreviousState) {
  const bool before = validation_enabled();
  EXPECT_EQ(set_validation_enabled(true), before);
  EXPECT_EQ(set_validation_enabled(before), true);
  EXPECT_EQ(validation_enabled(), before);
}

// ------------------------------------------------- simulator validators

TEST(SimulatorValidateTest, CleanEngineUnderChurnPasses) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 200; ++i)
    handles.push_back(sim.schedule_at(SimTime::micros(i + 1), [] {}));
  for (int i = 0; i < 200; i += 3)
    EXPECT_TRUE(sim.cancel(handles[static_cast<std::size_t>(i)]));
  sim.validate_integrity();
  sim.run_until(SimTime::micros(100));
  sim.validate_integrity();
  sim.run();
  sim.validate_integrity();
}

TEST(SimulatorValidateTest, BrokenHeapPropertyIsCaught) {
  Simulator sim;
  for (int i = 1; i <= 5; ++i)
    sim.schedule_at(SimTime::micros(i), [] {});
  auto& queue = SimulatorTestAccess::queue(sim);
  std::swap(queue.front(), queue.back());  // later event parked above earlier
  EXPECT_THROW(sim.validate_integrity(), CheckFailure);
}

TEST(SimulatorValidateTest, GenerationDriftIsCaught) {
  Simulator sim;
  sim.schedule_at(SimTime::micros(1), [] {});
  // Bump the slot's generation behind the engine's back: the queue entry
  // silently goes stale without the stale/live accounting moving.
  ++SimulatorTestAccess::slots(sim)[SimulatorTestAccess::queue(sim)
                                        .front()
                                        .slot]
        .gen;
  EXPECT_THROW(sim.validate_integrity(), CheckFailure);
}

// The stale-entry ledger is integrity state, not a soft counter. step()
// used to clamp an underflow away (`if (stale_ > 0) --stale_;`), which
// let drifted accounting pass silently and unwind as heap-audit noise
// much later; now skipping a cancelled head with stale_ == 0 fails hard
// at the exact corrupted pop.
TEST(SimulatorValidateTest, StaleLedgerUnderflowIsCaught) {
  Simulator sim;
  const EventHandle doomed = sim.schedule_at(SimTime::micros(1), [] {});
  sim.schedule_at(SimTime::micros(2), [] {});
  ASSERT_TRUE(sim.cancel(doomed));
  SimulatorTestAccess::stale(sim) = 0;  // the corruption under test
  EXPECT_THROW(sim.run(), CheckFailure);
}

// The lane's invariants: strictly ascending keys, one instant, and its
// stale entries on the same ledger as the heap's.
TEST(SimulatorValidateTest, OutOfOrderLaneIsCaught) {
  Simulator sim;
  sim.schedule_after(SimTime::zero(), [] {});
  sim.schedule_after(SimTime::zero(), [] {});
  auto& lane = SimulatorTestAccess::lane(sim);
  ASSERT_EQ(lane.size(), 2u);
  sim.validate_integrity();
  std::swap(lane[0], lane[1]);  // seq now runs backwards
  EXPECT_THROW(sim.validate_integrity(), CheckFailure);
}

TEST(SimulatorValidateTest, LaneEntryOffItsInstantIsCaught) {
  Simulator sim;
  sim.schedule_after(SimTime::zero(), [] {});
  sim.schedule_after(SimTime::zero(), [] {});
  auto& lane = SimulatorTestAccess::lane(sim);
  ASSERT_EQ(lane.size(), 2u);
  lane[1].time = SimTime::micros(5);  // still sorted, but another instant
  EXPECT_THROW(sim.validate_integrity(), CheckFailure);
}

TEST(SimulatorValidateTest, LaneStaleLedgerUnderflowIsCaught) {
  Simulator sim;
  const EventHandle doomed = sim.schedule_after(SimTime::zero(), [] {});
  sim.schedule_after(SimTime::zero(), [] {});
  ASSERT_EQ(SimulatorTestAccess::lane(sim).size(), 2u);
  ASSERT_TRUE(sim.cancel(doomed));
  sim.validate_integrity();
  SimulatorTestAccess::stale(sim) = 0;  // the corruption under test
  EXPECT_THROW(sim.validate_integrity(), CheckFailure);
  EXPECT_THROW(sim.run(), CheckFailure);
}

TEST(SimulatorValidateTest, FreeListCycleIsCaught) {
  Simulator sim;
  sim.schedule_at(SimTime::micros(1), [] {});
  sim.run();  // slot released back to the free list
  const std::uint32_t head = SimulatorTestAccess::free_head(sim);
  ASSERT_NE(head, 0xffffffffu);
  SimulatorTestAccess::slots(sim)[head].next_free = head;  // self-loop
  EXPECT_THROW(sim.validate_integrity(), CheckFailure);
}

TEST(SimulatorValidateTest, CallbackLeftOnFreeSlotIsCaught) {
  Simulator sim;
  sim.schedule_at(SimTime::micros(1), [] {});
  sim.run();
  const std::uint32_t head = SimulatorTestAccess::free_head(sim);
  ASSERT_NE(head, 0xffffffffu);
  SimulatorTestAccess::slots(sim)[head].cb = [] {};
  EXPECT_THROW(sim.validate_integrity(), CheckFailure);
}

TEST(SimulatorValidateTest, NonMonotoneTraceIsCaught) {
  Simulator sim;
  const SimTime t = SimTime::micros(5);
  sim.schedule_at(t, [] {});
  sim.schedule_at(t, [] {});
  // Same timestamp, so FIFO order is carried entirely by the sequence
  // numbers; swapping the heap entries makes seq run backwards without
  // tripping the clock-consistency check.
  auto& queue = SimulatorTestAccess::queue(sim);
  ASSERT_EQ(queue.size(), 2u);
  std::swap(queue[0], queue[1]);
  ValidationScope validation{true};
  EXPECT_TRUE(sim.step());
  EXPECT_THROW(static_cast<void>(sim.step()), CheckFailure);
}

// ------------------------------------------------------ the clock contract
//
// No public call leaves a pending event behind the clock, so these tests
// move now() past one directly: the state only an engine defect could
// produce. The engine must refuse it in every build type, whatever
// interference shares the engine.

// Schedules an event 1 ms ahead, moves the clock 2 ms ahead, and expects
// the next step to refuse the late event rather than run it.
void expect_late_event_refused(Simulator& sim) {
  bool fired = false;
  sim.schedule_at(sim.now() + SimTime::millis(1), [&fired] { fired = true; });
  SimulatorTestAccess::now(sim) = sim.now() + SimTime::millis(2);
  try {
    static_cast<void>(sim.step());
    ADD_FAILURE() << "an event behind the clock fired";
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string{failure.what()}.find("fired behind the clock"),
              std::string::npos)
        << failure.what();
  }
  EXPECT_FALSE(fired);
}

TEST(ClockContractTest, EventBehindTheClockThrows) {
  Simulator sim;
  expect_late_event_refused(sim);
}

TEST(ClockContractTest, EventBehindTheClockThrowsUnderALiveFaultPlan) {
  Rig rig{2};
  FaultInjector injector{FaultPlan::parse(
      "spike(core=1,start=0.001,duration=0.05);"
      "square(core=0,period=0.004,on=0.002);"
      "pareto(cores=1,min_on=0.001,mean_off=0.002);seed(value=3)")};
  ASSERT_FALSE(injector.inert());
  injector.install_interference(rig.sim, rig.machine);
  rig.sim.run_until(SimTime::millis(10));  // all three hogs under way
  expect_late_event_refused(rig.sim);
}

TEST(ClockContractTest, RunUntilBehindTheClockThrows) {
  Simulator sim;
  sim.run_until(SimTime::millis(20));
  EXPECT_THROW(sim.run_until(SimTime::millis(15)), CheckFailure);
}

// ---------------------------------------------------- runtime validators

TEST(RuntimeValidateTest, HealthyJobPassesAfterMigrations) {
  ValidationScope validation{true};  // exercise the automatic call sites too
  Rig rig{4, std::make_unique<GreedyLb>()};
  for (int i = 0; i < 8; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(
        20, SimTime::micros(100 * (i + 1)))));
  rig.job->start();
  rig.sim.run();
  EXPECT_TRUE(rig.job->finished());
  EXPECT_GT(rig.job->counters().lb_steps, 0);
  rig.job->validate_invariants();
}

TEST(RuntimeValidateTest, OutOfRangeAssignmentIsCaught) {
  Rig rig{2};
  for (int i = 0; i < 4; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(2, SimTime::micros(10))));
  rig.job->start();
  rig.sim.run();
  rig.job->validate_invariants();
  RuntimeJobTestAccess::assignment(*rig.job)[0] = 99;  // PE that doesn't exist
  EXPECT_THROW(rig.job->validate_invariants(), CheckFailure);
}

TEST(RuntimeValidateTest, DoneCountDriftIsCaught) {
  Rig rig{2};
  for (int i = 0; i < 4; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(2, SimTime::micros(10))));
  rig.job->start();
  rig.sim.run();
  auto done = RuntimeJobTestAccess::chare_done(*rig.job);
  RuntimeJobTestAccess::chare_done(*rig.job)[0] =
      static_cast<std::uint8_t>(done[0] == 0);
  EXPECT_THROW(rig.job->validate_invariants(), CheckFailure);
}

// ----------------------------------------- partitioned-state validators

/// A completed sharded run whose partitioned state the tests then damage
/// through the corruption seams: every validator below must catch its
/// specific kind of rot (the partition only ever rots through bugs in the
/// window/merge protocol, which is exactly why it needs a validator).
struct ShardedRig {
  explicit ShardedRig(int shards) {
    MachineConfig mc;
    mc.nodes = 4;
    mc.cores_per_node = 2;
    ShardedRuntimeHost::Config hc;
    hc.shards = shards;
    hc.window = shard_window_width(JobConfig{}.network);
    host = std::make_unique<ShardedRuntimeHost>(mc, hc);
    std::vector<CoreId> ids(8);
    std::iota(ids.begin(), ids.end(), 0);
    vm = std::make_unique<VirtualMachine>(host->machine(), "app", ids);
    JobConfig jc;
    jc.lb_period = 4;
    job = std::make_unique<RuntimeJob>(*host, *vm, jc,
                                       std::make_unique<GreedyLb>());
    for (int i = 0; i < 16; ++i)
      static_cast<void>(job->add_chare(std::make_unique<WorkerChare>(
          12, SimTime::micros(100 * (i % 5 + 1)))));
    job->start();
    host->drive(/*max_events=*/100'000'000);
  }

  std::unique_ptr<ShardedRuntimeHost> host;
  std::unique_ptr<VirtualMachine> vm;
  std::unique_ptr<RuntimeJob> job;
};

TEST(PartitionValidateTest, HealthyShardedJobPasses) {
  ShardedRig rig{2};
  EXPECT_TRUE(rig.job->finished());
  rig.job->validate_invariants();
}

TEST(PartitionValidateTest, ShardedDoneCountDriftIsCaught) {
  ShardedRig rig{2};
  rig.job->validate_invariants();
  RuntimeJobTestAccess::chare_done(*rig.job)[0] = 0;  // un-finish a chare
  EXPECT_THROW(rig.job->validate_invariants(), CheckFailure);
}

TEST(PartitionValidateTest, ReductionCounterDriftIsCaught) {
  ShardedRig rig{2};
  rig.job->validate_invariants();
  // A red_count with no logged contribution means a shard counted a
  // contribution it never recorded — the merge would silently drop it.
  ++RuntimeJobTestAccess::partition(*rig.job).seg(0).red_count;
  EXPECT_THROW(rig.job->validate_invariants(), CheckFailure);
}

TEST(PartitionValidateTest, NonMonotoneContributionsAreCaught) {
  ShardedRig rig{2};
  rig.job->validate_invariants();
  // A shard's contribution log must be in its own execution order; a
  // backwards timestamp means a foreign thread wrote into the segment.
  ShardSegment& seg = RuntimeJobTestAccess::partition(*rig.job).seg(0);
  seg.contributions.emplace_back(SimTime::seconds(2), 1.0);
  seg.contributions.emplace_back(SimTime::seconds(1), 1.0);
  seg.red_count += 2;
  EXPECT_THROW(rig.job->validate_invariants(), CheckFailure);
}

TEST(PartitionValidateTest, SegmentCountMismatchIsCaught) {
  ShardedRig rig{3};
  rig.job->validate_invariants();
  // More chares "at the barrier" than live chares: quiescence could fire
  // before the last straggler arrives.
  RuntimeJobTestAccess::partition(*rig.job).seg(0).sync_count = 999;
  EXPECT_THROW(rig.job->validate_invariants(), CheckFailure);
}

// -------------------------------------------------- refinement validator

namespace rd = refinement_detail;

LbStats make_stats(const std::vector<double>& pe_loads,
                   const std::vector<std::pair<PeId, double>>& chares) {
  LbStats stats;
  for (std::size_t p = 0; p < pe_loads.size(); ++p)
    stats.pes.push_back(PeSample{.pe = static_cast<PeId>(p),
                                 .core = static_cast<std::int32_t>(p),
                                 .wall_sec = 1.0,
                                 .core_idle_sec = 1.0 - pe_loads[p],
                                 .task_cpu_sec = pe_loads[p]});
  for (std::size_t c = 0; c < chares.size(); ++c)
    stats.chares.push_back(ChareSample{.chare = static_cast<ChareId>(c),
                                       .pe = chares[c].first,
                                       .cpu_sec = chares[c].second,
                                       .bytes = 1024});
  return stats;
}

TEST(RefinementValidateTest, EngineRunsCleanUnderValidation) {
  ValidationScope validation{true};
  // Unbalanced on purpose: PE0 carries everything, so refinement must move
  // chares and the engine's own post-pass audit runs on a non-trivial plan.
  const LbStats stats = make_stats(
      {0.8, 0.0}, {{0, 0.4}, {0, 0.2}, {0, 0.1}, {0, 0.1}});
  const std::vector<double> external(2, 0.0);
  const RefinementResult result = refine_assignment(stats, external, 0.05);
  EXPECT_GT(result.migrations, 0);
}

TEST(RefinementValidateTest, TamperedAssignmentBreaksConservation) {
  // Already balanced, so the engine's incremental loads equal the initial
  // ones and the validator's recomputation agrees — until we tamper.
  const LbStats stats = make_stats(
      {0.3, 0.3}, {{0, 0.15}, {0, 0.15}, {1, 0.15}, {1, 0.15}});
  const std::vector<double> external(2, 0.0);
  const rd::Problem problem =
      rd::build_problem(stats, external, RefinementOptions{});
  RefinementResult result = refine_assignment(stats, external, 0.05);
  EXPECT_EQ(result.migrations, 0);
  rd::validate_refinement(stats, external, problem, result);

  result.assignment[0] = 1;  // move a chare without moving its load
  EXPECT_THROW(rd::validate_refinement(stats, external, problem, result),
               CheckFailure);
}

TEST(RefinementValidateTest, DriftedLoadVectorBreaksEq1) {
  const LbStats stats = make_stats(
      {0.3, 0.3}, {{0, 0.15}, {0, 0.15}, {1, 0.15}, {1, 0.15}});
  const std::vector<double> external(2, 0.0);
  rd::Problem problem = rd::build_problem(stats, external, RefinementOptions{});
  const RefinementResult result = refine_assignment(stats, external, 0.05);
  problem.load[0] += 1.0;  // Eq. 1: Σ load must stay P · T_avg
  EXPECT_THROW(rd::validate_refinement(stats, external, problem, result),
               CheckFailure);
}

// ------------------------------------------------- observe-only contract

TEST(ValidationDeterminismTest, ValidatedRunIsBitIdentical) {
  using Trace = std::vector<std::pair<SimTime, std::uint64_t>>;
  const auto run_once = [](bool validated) {
    ValidationScope validation{validated};
    Rig rig{4, std::make_unique<GreedyLb>()};
    for (int i = 0; i < 8; ++i)
      static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(
          20, SimTime::micros(100 * (i + 1)))));
    Trace trace;
    rig.sim.set_trace_hook([&trace](SimTime t, std::uint64_t seq) {
      trace.emplace_back(t, seq);
    });
    rig.job->start();
    rig.sim.run();
    return trace;
  };
  const Trace plain = run_once(false);
  const Trace validated = run_once(true);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(plain, validated);
}

}  // namespace
}  // namespace cloudlb
