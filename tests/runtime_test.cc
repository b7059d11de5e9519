#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "lb/null_lb.h"
#include "lb/greedy_lb.h"
#include "lb/refine_lb.h"

#include "core/interference_aware_lb.h"
#include "machine/machine.h"
#include "runtime/chare.h"
#include "runtime/job.h"
#include "runtime/lb_database.h"
#include "runtime/network.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "vm/interferer.h"
#include "vm/virtual_machine.h"

namespace cloudlb {
namespace {

constexpr double kTol = 1e-4;

/// Independent iterative worker: one self-task per iteration of a fixed
/// cost, AtSync every lb_period iterations.
class WorkerChare final : public Chare {
 public:
  WorkerChare(int iterations, SimTime task_cost, std::size_t bytes = 4096)
      : iterations_{iterations}, task_cost_{task_cost}, bytes_{bytes} {}

  void on_start() override { send(id(), 0, {}); }
  SimTime cost(const Message&) const override { return task_cost_; }

  void execute(const Message&) override {
    report_iteration(iter_);
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
  std::size_t footprint_bytes() const override { return bytes_; }

  int completed() const { return iter_; }

 private:
  int iterations_;
  SimTime task_cost_;
  std::size_t bytes_;
  int iter_ = 0;
};

/// Two chares bouncing a counter back and forth.
class PingPongChare final : public Chare {
 public:
  PingPongChare(ChareId peer, int rounds, bool starts)
      : peer_{peer}, rounds_{rounds}, starts_{starts} {}

  void on_start() override {
    if (starts_) send(peer_, 0, {0.0});
  }
  SimTime cost(const Message&) const override { return SimTime::micros(10); }
  void execute(const Message& msg) override {
    const int count = static_cast<int>(msg.data[0]) + 1;
    received_ = count;
    if (msg.tag == 1) {
      finish();
      return;
    }
    if (count >= rounds_) {
      finish();
      send(peer_, 1, {static_cast<double>(count)});  // tell peer to stop
      return;
    }
    send(peer_, 0, {static_cast<double>(count)});
  }
  int received() const { return received_; }

 private:
  ChareId peer_;
  int rounds_;
  bool starts_;
  int received_ = 0;
};

/// Captures the LbStats handed to a strategy and keeps the mapping as-is.
class ProbeLb final : public LoadBalancer {
 public:
  explicit ProbeLb(std::vector<LbStats>* sink) : sink_{sink} {}
  std::string name() const override { return "probe"; }
  std::vector<PeId> assign(const LbStats& stats) override {
    sink_->push_back(stats);
    return stats.current_assignment();
  }

 private:
  std::vector<LbStats>* sink_;
};

/// Applies a fixed assignment on the first LB step, then holds.
class ForcedMoveLb final : public LoadBalancer {
 public:
  explicit ForcedMoveLb(std::vector<PeId> target) : target_{std::move(target)} {}
  std::string name() const override { return "forced"; }
  std::vector<PeId> assign(const LbStats& stats) override {
    if (!applied_) {
      applied_ = true;
      return target_;
    }
    return stats.current_assignment();
  }

 private:
  std::vector<PeId> target_;
  bool applied_ = false;
};

/// Counts every observer callback.
class CountingObserver final : public ExecutionObserver {
 public:
  void on_task_executed(const RuntimeJob&, PeId, CoreId, ChareId, int,
                        SimTime, SimTime end) override {
    ++tasks;
    last_task_end = end;
  }
  void on_lb_step(const RuntimeJob&, int, SimTime, int step_migrations) override {
    ++lb_steps;
    total_migrations += step_migrations;
  }
  void on_migration(const RuntimeJob&, ChareId, PeId, PeId) override {
    ++migrations;
  }
  void on_iteration_complete(const RuntimeJob&, int iteration,
                             SimTime) override {
    iterations.push_back(iteration);
  }

  int tasks = 0;
  int lb_steps = 0;
  int migrations = 0;
  int total_migrations = 0;
  std::vector<int> iterations;
  SimTime last_task_end;
};

struct Rig {
  explicit Rig(int cores, JobConfig config = JobConfig{},
               std::unique_ptr<LoadBalancer> lb = nullptr,
               MachineConfig mc = MachineConfig{.nodes = 2,
                                                .cores_per_node = 4, .core_speed_overrides = {}})
      : machine(sim, mc) {
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

// ------------------------------------------------------------ fundamentals

TEST(NetworkTest, DelayComposition) {
  NetworkConfig net;
  const SimTime intra = delivery_delay(net, 1000, true);
  const SimTime inter = delivery_delay(net, 1000, false);
  EXPECT_EQ(intra, net.intra_node_latency +
                       SimTime::from_seconds(1000 / net.intra_node_bandwidth));
  EXPECT_EQ(inter, net.inter_node_latency +
                       SimTime::from_seconds(1000 / net.inter_node_bandwidth));
  EXPECT_GT(inter, intra);
}

TEST(LbDatabaseTest, AccumulatesAndClears) {
  LbDatabase db;
  db.reset(3);
  db.record_task(0, 1.0);
  db.record_task(0, 0.5);
  db.record_task(2, 2.0);
  EXPECT_DOUBLE_EQ(db.chare_cpu(0), 1.5);
  EXPECT_DOUBLE_EQ(db.chare_cpu(1), 0.0);
  EXPECT_DOUBLE_EQ(db.chare_cpu(2), 2.0);
  db.clear_window();
  EXPECT_DOUBLE_EQ(db.chare_cpu(0), 0.0);
  EXPECT_DOUBLE_EQ(db.chare_cpu(2), 0.0);
  EXPECT_EQ(db.num_chares(), 3u);
  EXPECT_THROW(db.record_task(3, 1.0), CheckFailure);
  EXPECT_THROW(db.record_task(0, -1.0), CheckFailure);
}

// ------------------------------------------------------------ basic runs

TEST(RuntimeJobTest, SingleWorkerRunsToCompletion) {
  Rig rig{1};
  auto owned = std::make_unique<WorkerChare>(10, SimTime::millis(50));
  auto* w = owned.get();
  static_cast<void>(rig.job->add_chare(std::move(owned)));
  rig.job->start();
  rig.sim.run();
  EXPECT_TRUE(rig.job->finished());
  EXPECT_EQ(w->completed(), 10);
  // 10 tasks × 50 ms on a dedicated core.
  EXPECT_NEAR(rig.job->elapsed().to_seconds(), 0.5, kTol);
  EXPECT_EQ(rig.job->counters().tasks_executed, 10);
}

TEST(RuntimeJobTest, BlockInitialMapping) {
  Rig rig{2};
  for (int i = 0; i < 6; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(1, SimTime::micros(1))));
  rig.job->start();
  EXPECT_EQ(rig.job->pe_of(0), 0);
  EXPECT_EQ(rig.job->pe_of(2), 0);
  EXPECT_EQ(rig.job->pe_of(3), 1);
  EXPECT_EQ(rig.job->pe_of(5), 1);
  rig.sim.run();
}

TEST(RuntimeJobTest, PesExecuteConcurrently) {
  Rig rig{4};
  for (int i = 0; i < 4; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(4, SimTime::millis(100))));
  rig.job->start();
  rig.sim.run();
  // Perfectly parallel: 4 iterations × 100 ms each.
  EXPECT_NEAR(rig.job->elapsed().to_seconds(), 0.4, kTol);
}

TEST(RuntimeJobTest, SamePeSerializesChares) {
  Rig rig{1};
  for (int i = 0; i < 4; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(4, SimTime::millis(100))));
  rig.job->start();
  rig.sim.run();
  EXPECT_NEAR(rig.job->elapsed().to_seconds(), 1.6, kTol);
}

TEST(RuntimeJobTest, PingPongDelivers) {
  Rig rig{2};
  static_cast<void>(rig.job->add_chare(std::make_unique<PingPongChare>(1, 20, true)));
  static_cast<void>(rig.job->add_chare(std::make_unique<PingPongChare>(0, 20, false)));
  rig.job->start();
  rig.sim.run();
  EXPECT_TRUE(rig.job->finished());
  EXPECT_GE(rig.job->counters().messages_sent, 20);
}

TEST(RuntimeJobTest, InterNodeLatencyVisible) {
  JobConfig config;
  config.lb_period = 0;
  config.network.intra_node_latency = SimTime::micros(1);
  config.network.inter_node_latency = SimTime::millis(10);

  // Two PEs on one node vs. two PEs across nodes.
  auto run_with = [&](MachineConfig mc) {
    Rig rig{2, config, nullptr, mc};
    static_cast<void>(rig.job->add_chare(std::make_unique<PingPongChare>(1, 10, true)));
    static_cast<void>(rig.job->add_chare(std::make_unique<PingPongChare>(0, 10, false)));
    rig.job->start();
    rig.sim.run();
    return rig.job->elapsed();
  };
  const SimTime same_node =
      run_with(MachineConfig{.nodes = 1, .cores_per_node = 2, .core_speed_overrides = {}});
  const SimTime cross_node =
      run_with(MachineConfig{.nodes = 2, .cores_per_node = 1, .core_speed_overrides = {}});
  EXPECT_GT(cross_node.to_seconds(), same_node.to_seconds() + 0.08);
}

TEST(RuntimeJobTest, CpuConsumedMatchesTaskCost) {
  Rig rig{2};
  for (int i = 0; i < 4; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(5, SimTime::millis(10))));
  rig.job->start();
  rig.sim.run();
  EXPECT_NEAR(rig.job->cpu_consumed().to_seconds(), 4 * 5 * 0.010, 1e-3);
}

// ------------------------------------------------------------ contracts

TEST(RuntimeJobTest, RequiresOverdecomposition) {
  Rig rig{4};
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(1, SimTime::micros(1))));
  EXPECT_THROW(rig.job->start(), CheckFailure);
}

TEST(RuntimeJobTest, NoChareAdditionAfterStart) {
  Rig rig{1};
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(1, SimTime::micros(1))));
  rig.job->start();
  EXPECT_THROW(
      static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(1, SimTime::micros(1)))),
      CheckFailure);
  rig.sim.run();
}

TEST(RuntimeJobTest, NullBalancerRejected) {
  Simulator sim;
  Machine machine{sim, MachineConfig{.nodes = 1, .cores_per_node = 1, .core_speed_overrides = {}}};
  VirtualMachine vm{machine, "app", {0}};
  EXPECT_THROW(RuntimeJob(sim, vm, JobConfig{}, nullptr), CheckFailure);
}

TEST(RuntimeJobTest, DoubleStartRejected) {
  Rig rig{1};
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(1, SimTime::micros(1))));
  rig.job->start();
  EXPECT_THROW(rig.job->start(), CheckFailure);
  rig.sim.run();
}

TEST(RuntimeJobTest, FinishTimeRequiresCompletion) {
  Rig rig{1};
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(1, SimTime::micros(1))));
  rig.job->start();
  EXPECT_THROW(static_cast<void>(rig.job->finish_time()), CheckFailure);
  rig.sim.run();
  EXPECT_NO_THROW(static_cast<void>(rig.job->finish_time()));
}

// ------------------------------------------------------- LB barrier + stats

TEST(RuntimeJobTest, AtSyncTriggersBalancerWithMeasuredStats) {
  JobConfig config;
  config.lb_period = 5;
  std::vector<LbStats> seen;
  Rig rig{2, config, std::make_unique<ProbeLb>(&seen)};
  // Two chares per PE, distinct costs.
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(30))));
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(10))));
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(20))));
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(20))));
  rig.job->start();
  rig.sim.run();

  ASSERT_EQ(seen.size(), 1u);  // one sync at iteration 5 (10 ends the run)
  const LbStats& stats = seen[0];
  ASSERT_EQ(stats.pes.size(), 2u);
  ASSERT_EQ(stats.chares.size(), 4u);
  EXPECT_NEAR(stats.chares[0].cpu_sec, 5 * 0.030, 1e-3);
  EXPECT_NEAR(stats.chares[1].cpu_sec, 5 * 0.010, 1e-3);
  EXPECT_NEAR(stats.pes[0].task_cpu_sec, 5 * 0.040, 1e-3);
  EXPECT_NEAR(stats.pes[1].task_cpu_sec, 5 * 0.040, 1e-3);
  // PE0 serializes 40 ms/iteration of work → window wall ≈ 200 ms, no idle.
  EXPECT_NEAR(stats.pes[0].wall_sec, 0.200, 0.01);
  EXPECT_NEAR(stats.pes[0].core_idle_sec, 0.0, 0.01);
  // Eq. 2 background estimate on a quiet machine ≈ 0.
  EXPECT_NEAR(stats.pes[0].wall_sec - stats.pes[0].task_cpu_sec -
                  stats.pes[0].core_idle_sec,
              0.0, 0.01);
}

TEST(RuntimeJobTest, IdleShowsUpInWindowStats) {
  JobConfig config;
  config.lb_period = 5;
  std::vector<LbStats> seen;
  Rig rig{2, config, std::make_unique<ProbeLb>(&seen)};
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(40))));
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(10))));
  rig.job->start();
  rig.sim.run();
  ASSERT_EQ(seen.size(), 1u);
  // PE1 works 10 ms per 40 ms of wall: idle ≈ wall − 50 ms.
  EXPECT_NEAR(seen[0].pes[1].core_idle_sec,
              seen[0].pes[1].wall_sec - 5 * 0.010, 0.01);
}

TEST(RuntimeJobTest, BackgroundLoadVisibleViaIdleCounter) {
  JobConfig config;
  config.lb_period = 5;
  std::vector<LbStats> seen;
  Rig rig{2, config, std::make_unique<ProbeLb>(&seen)};
  SyntheticInterferer hog{rig.sim, rig.machine, {1}};
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(20))));
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(20))));
  hog.start();
  rig.job->start();
  rig.sim.run_until(SimTime::seconds(10));
  hog.stop();
  rig.sim.run();

  ASSERT_GE(seen.size(), 1u);
  const PeSample& interfered = seen[0].pes[1];
  const PeSample& quiet = seen[0].pes[0];
  const double o_interfered =
      interfered.wall_sec - interfered.task_cpu_sec - interfered.core_idle_sec;
  const double o_quiet =
      quiet.wall_sec - quiet.task_cpu_sec - quiet.core_idle_sec;
  // The hog eats every cycle the app leaves on core 1 → O_p ≈ wall − task.
  EXPECT_NEAR(o_interfered, interfered.wall_sec - interfered.task_cpu_sec,
              1e-6);
  EXPECT_GT(o_interfered, 0.3 * interfered.wall_sec);
  EXPECT_NEAR(o_quiet, 0.0, 0.01);
}

// ---------------------------------------------------------- migrations

TEST(RuntimeJobTest, ForcedMigrationMovesChareAndCharesKeepState) {
  JobConfig config;
  config.lb_period = 5;
  // 4 chares: swap sides for chares 0 and 2 at the first sync.
  Rig rig{2, config, std::make_unique<ForcedMoveLb>(std::vector<PeId>{1, 0, 1, 1})};
  std::vector<WorkerChare*> workers;
  for (int i = 0; i < 4; ++i) {
    auto w = std::make_unique<WorkerChare>(20, SimTime::millis(5));
    workers.push_back(w.get());
    static_cast<void>(rig.job->add_chare(std::move(w)));
  }
  rig.job->start();
  rig.sim.run();

  EXPECT_EQ(rig.job->pe_of(0), 1);
  EXPECT_EQ(rig.job->pe_of(1), 0);
  // Only chare 0 actually changes PE (1, 2, 3 were already on target).
  EXPECT_EQ(rig.job->counters().migrations, 1);
  EXPECT_GT(rig.job->counters().migrated_bytes, 0);
  for (const auto* w : workers) EXPECT_EQ(w->completed(), 20);
  EXPECT_TRUE(rig.job->finished());
}

TEST(RuntimeJobTest, MigrationCostsWallTime) {
  auto elapsed_with_bytes = [&](std::size_t bytes) {
    JobConfig config;
    config.lb_period = 2;
    config.pack_sec_per_byte = 1e-6;  // exaggerated for visibility
    config.unpack_sec_per_byte = 1e-6;
    Rig rig{2, config, std::make_unique<ForcedMoveLb>(std::vector<PeId>{1, 0})};
    static_cast<void>(rig.job->add_chare(
        std::make_unique<WorkerChare>(4, SimTime::millis(1), bytes)));
    static_cast<void>(rig.job->add_chare(
        std::make_unique<WorkerChare>(4, SimTime::millis(1), bytes)));
    rig.job->start();
    rig.sim.run();
    return rig.job->elapsed().to_seconds();
  };
  const double small = elapsed_with_bytes(1'000);
  const double big = elapsed_with_bytes(100'000);
  // The two migrations overlap, so at least one pack+unpack chain
  // (≈ 0.2 s for the larger state) lands on the critical path.
  EXPECT_GT(big, small + 0.15);
}

TEST(RuntimeJobTest, BalancerOutputValidated) {
  JobConfig config;
  config.lb_period = 2;
  Rig rig{2, config, std::make_unique<ForcedMoveLb>(std::vector<PeId>{7, 0})};
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(4, SimTime::millis(1))));
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(4, SimTime::millis(1))));
  rig.job->start();
  EXPECT_THROW(rig.sim.run(), CheckFailure);
}

// ---------------------------------------------------------- observers

TEST(RuntimeJobTest, ObserverSeesEverything) {
  JobConfig config;
  config.lb_period = 5;
  Rig rig{2, config, std::make_unique<ForcedMoveLb>(std::vector<PeId>{1, 0, 1, 0})};
  CountingObserver obs;
  rig.job->set_observer(&obs);
  for (int i = 0; i < 4; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(2))));
  rig.job->start();
  rig.sim.run();

  EXPECT_EQ(obs.tasks, 40);
  EXPECT_EQ(obs.lb_steps, 1);
  EXPECT_EQ(obs.migrations, 2);  // chares 0 and 3 change PEs
  EXPECT_EQ(obs.total_migrations, 2);
  ASSERT_EQ(obs.iterations.size(), 10u);
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(obs.iterations[static_cast<std::size_t>(i)], i);
  EXPECT_EQ(obs.last_task_end, rig.job->finish_time());
}

TEST(RuntimeJobTest, IterationTimesMonotone) {
  Rig rig{2};
  for (int i = 0; i < 4; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(8, SimTime::millis(3))));
  rig.job->start();
  rig.sim.run();
  const auto& times = rig.job->iteration_times();
  ASSERT_EQ(times.size(), 8u);
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_GT(times[i], times[i - 1]);
}

// ----------------------------------------------------- NIC contention

TEST(RuntimeJobTest, NicContentionSerializesSimultaneousSends) {
  // Two large cross-node messages sent at the same instant from node 0:
  // with contention modelled, the second transfer queues behind the first.
  auto arrival_gap = [&](bool contention) {
    JobConfig config;
    config.lb_period = 0;
    config.network.model_nic_contention = contention;
    config.network.inter_node_bandwidth = 1e6;  // slow: 1 MB/s
    // PEs 0,1 on node 0; PEs 2,3 on node 1 (cores_per_node = 2 here).
    Rig rig{4, config, nullptr,
            MachineConfig{.nodes = 2, .cores_per_node = 2, .core_speed_overrides = {}}};

    /// Sender fires one 100 kB message at a cross-node receiver on start.
    class BlastChare final : public Chare {
     public:
      explicit BlastChare(ChareId dest) : dest_{dest} {}
      void on_start() override {
        if (dest_ >= 0) send(dest_, 0, {}, 100'000);
      }
      SimTime cost(const Message&) const override { return SimTime::zero(); }
      void execute(const Message&) override {
        received_at = job().sim().now();
        finish();
      }
      SimTime received_at;

     private:
      ChareId dest_ = -1;
    };

    // Chares 0,1 -> PEs 0,1 (node 0) send; chares 2,3 -> PEs 2,3 receive.
    static_cast<void>(rig.job->add_chare(std::make_unique<BlastChare>(2)));
    static_cast<void>(rig.job->add_chare(std::make_unique<BlastChare>(3)));
    auto r2 = std::make_unique<BlastChare>(-1);
    auto r3 = std::make_unique<BlastChare>(-1);
    auto* p2 = r2.get();
    auto* p3 = r3.get();
    static_cast<void>(rig.job->add_chare(std::move(r2)));
    static_cast<void>(rig.job->add_chare(std::move(r3)));
    rig.job->start();
    // Senders never finish (they get no message) — run until receivers do.
    while (p2->received_at.is_zero() || p3->received_at.is_zero())
      CLB_CHECK(rig.sim.step());
    const SimTime a = std::min(p2->received_at, p3->received_at);
    const SimTime b = std::max(p2->received_at, p3->received_at);
    return (b - a).to_seconds();
  };

  // Transfer time is 0.1 s; without contention both arrive together.
  EXPECT_LT(arrival_gap(false), 1e-6);
  EXPECT_NEAR(arrival_gap(true), 0.1, 1e-3);
}

TEST(RuntimeJobTest, NicContentionPreservesIntraNodeTraffic) {
  JobConfig with;
  with.lb_period = 0;
  with.network.model_nic_contention = true;
  JobConfig without = with;
  without.network.model_nic_contention = false;
  auto elapsed = [&](JobConfig config) {
    Rig rig{2, config, nullptr,
            MachineConfig{.nodes = 1, .cores_per_node = 2, .core_speed_overrides = {}}};
    static_cast<void>(rig.job->add_chare(std::make_unique<PingPongChare>(1, 20, true)));
    static_cast<void>(rig.job->add_chare(std::make_unique<PingPongChare>(0, 20, false)));
    rig.job->start();
    rig.sim.run();
    return rig.job->elapsed().ns();
  };
  EXPECT_EQ(elapsed(with), elapsed(without));  // same node: no NIC involved
}

// ------------------------------------------------------------ reductions

/// Contributes a value at start; records the global result and finishes.
class ReducerChare final : public Chare {
 public:
  ReducerChare(double value, std::vector<double>* results, SimTime work)
      : value_{value}, results_{results}, work_{work} {}
  void on_start() override { send(id(), 0, {}); }
  SimTime cost(const Message&) const override { return work_; }
  void execute(const Message&) override { contribute(value_); }
  void on_reduction_result(double result) override {
    results_->push_back(result);
    finish();
  }

 private:
  double value_;
  std::vector<double>* results_;
  SimTime work_;
};

TEST(RuntimeJobTest, ReductionSumsAllChares) {
  Rig rig{2};
  std::vector<double> results;
  for (int i = 0; i < 6; ++i)
    static_cast<void>(rig.job->add_chare(std::make_unique<ReducerChare>(
        static_cast<double>(i), &results, SimTime::millis(1))));
  rig.job->start();
  rig.sim.run();
  ASSERT_EQ(results.size(), 6u);
  for (const double r : results) EXPECT_DOUBLE_EQ(r, 15.0);  // Σ 0..5
  EXPECT_TRUE(rig.job->finished());
}

TEST(RuntimeJobTest, ReductionWaitsForSlowestContributor) {
  Rig rig{4};
  std::vector<double> results;
  for (int i = 0; i < 3; ++i)
    static_cast<void>(rig.job->add_chare(
        std::make_unique<ReducerChare>(1.0, &results, SimTime::millis(5))));
  static_cast<void>(rig.job->add_chare(
      std::make_unique<ReducerChare>(1.0, &results, SimTime::millis(300))));
  rig.job->start();
  rig.sim.run();
  // The result cannot arrive before the slow chare's 300 ms of work plus
  // the reduction latency.
  EXPECT_GE(rig.job->elapsed().to_seconds(), 0.300);
  ASSERT_EQ(results.size(), 4u);
}

TEST(RuntimeJobTest, ReductionResultWithoutOverrideFailsLoudly) {
  Rig rig{1};
  // WorkerChare never overrides on_reduction_result.
  static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(1, SimTime::micros(1))));
  rig.job->start();
  rig.sim.run();
  EXPECT_THROW(rig.job->chare(0).on_reduction_result(0.0), CheckFailure);
}

// ------------------------------------------------- /proc/stat quantization

TEST(RuntimeJobTest, QuantizedIdleStaysCloseToExact) {
  // With a 10 ms jiffy the window idle reading may be off by up to one
  // quantum per endpoint, never more.
  auto idle_with_quantum = [&](SimTime quantum) {
    JobConfig config;
    config.lb_period = 5;
    config.proc_stat_quantum = quantum;
    std::vector<LbStats> seen;
    Rig rig{2, config, std::make_unique<ProbeLb>(&seen)};
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(43))));
    static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(10, SimTime::millis(7))));
    rig.job->start();
    rig.sim.run();
    CLB_CHECK(seen.size() == 1);
    return seen[0].pes[1].core_idle_sec;
  };
  const double exact = idle_with_quantum(SimTime::zero());
  const double jiffy = idle_with_quantum(SimTime::millis(10));
  EXPECT_NEAR(jiffy, exact, 0.020 + 1e-9);
  // And the quantized value is a whole number of jiffies up to rounding of
  // the anchor (both endpoints are floored to the same grid).
  const double remainder = std::fmod(jiffy + 1e-12, 0.010);
  EXPECT_TRUE(remainder < 1e-6 || remainder > 0.010 - 1e-6)
      << "remainder " << remainder;
}

TEST(RuntimeJobTest, BalancingStillWorksWithJiffyCounters) {
  // The estimator inputs are 10 ms-quantized; the balancer must still
  // relieve an interfered core (windows are hundreds of ms, so the
  // relative error is small).
  auto elapsed_with = [&](std::unique_ptr<LoadBalancer> lb) {
    JobConfig config;
    config.lb_period = 4;
    config.proc_stat_quantum = SimTime::millis(10);
    Rig rig{2, config, std::move(lb)};
    SyntheticInterferer hog{rig.sim, rig.machine, {0}};
    for (int i = 0; i < 8; ++i)
      static_cast<void>(rig.job->add_chare(
          std::make_unique<WorkerChare>(32, SimTime::millis(20))));
    hog.start();
    rig.job->start();
    while (!rig.job->finished()) CLB_CHECK(rig.sim.step());
    hog.stop();
    rig.sim.run();
    return rig.job->elapsed().to_seconds();
  };
  const double no_lb = elapsed_with(std::make_unique<NullLb>());
  const double with_lb =
      elapsed_with(std::make_unique<InterferenceAwareRefineLb>());
  EXPECT_LT(with_lb, 0.8 * no_lb);
}

// ------------------------------------------------ end-to-end LB behaviour

TEST(RuntimeJobTest, RefineLbFixesInternalImbalanceEndToEnd) {
  // 8 chares of uneven cost piled so PE0 is overloaded; RefineLB should
  // cut the makespan close to the even split.
  auto run_with = [&](std::unique_ptr<LoadBalancer> lb) {
    JobConfig config;
    config.lb_period = 4;
    Rig rig{2, config, std::move(lb)};
    for (int i = 0; i < 4; ++i)
      static_cast<void>(rig.job->add_chare(
          std::make_unique<WorkerChare>(40, SimTime::millis(15))));
    for (int i = 0; i < 4; ++i)
      static_cast<void>(rig.job->add_chare(std::make_unique<WorkerChare>(40, SimTime::millis(5))));
    rig.job->start();
    rig.sim.run();
    return rig.job->elapsed().to_seconds();
  };
  const double unbalanced = run_with(std::make_unique<NullLb>());
  const double refined = run_with(std::make_unique<RefineLb>());
  const double greedy = run_with(std::make_unique<GreedyLb>());
  // noLB: PE0 does 60 ms/iter vs PE1's 20 ms → ≈ 2.4 s. Refinement gets
  // stuck at a 45/35 split (it moves whole 15 ms chares and never swaps),
  // greedy reaches the ideal 40/40.
  EXPECT_NEAR(unbalanced, 2.4, 0.05);
  EXPECT_LT(refined, 1.95);
  EXPECT_LT(greedy, 1.75);
  EXPECT_LT(refined, unbalanced * 0.85);
}

}  // namespace
}  // namespace cloudlb
