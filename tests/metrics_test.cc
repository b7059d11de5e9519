#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "lb/null_lb.h"
#include "machine/machine.h"
#include "metrics/profile.h"
#include "metrics/timeline.h"
#include "runtime/job.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "vm/virtual_machine.h"

namespace cloudlb {
namespace {

/// Minimal worker for driving the tracer through a real job.
class TickChare final : public Chare {
 public:
  TickChare(int iterations, SimTime cost)
      : iterations_{iterations}, cost_{cost} {}
  void on_start() override { send(id(), 0, {}); }
  SimTime cost(const Message&) const override { return cost_; }
  void execute(Message&) override {
    if (++done_ >= iterations_) {
      finish();
      return;
    }
    send(id(), 0, {});
  }

 private:
  int iterations_;
  SimTime cost_;
  int done_ = 0;
};

struct TraceRig {
  TraceRig() : machine(sim, MachineConfig{.nodes = 1, .cores_per_node = 4, .core_speed_overrides = {}}) {}

  RuntimeJob& make_job(const std::string& name, std::vector<CoreId> cores) {
    vms.push_back(std::make_unique<VirtualMachine>(machine, name, cores));
    JobConfig config;
    config.name = name;
    config.lb_period = 0;
    jobs.push_back(std::make_unique<RuntimeJob>(sim, *vms.back(), config,
                                                std::make_unique<NullLb>()));
    jobs.back()->set_observer(&tracer);
    return *jobs.back();
  }

  Simulator sim;
  Machine machine;
  TimelineTracer tracer;
  std::vector<std::unique_ptr<VirtualMachine>> vms;
  std::vector<std::unique_ptr<RuntimeJob>> jobs;
};

TEST(TimelineTest, RecordsTaskIntervals) {
  TraceRig rig;
  RuntimeJob& job = rig.make_job("app", {0});
  static_cast<void>(job.add_chare(std::make_unique<TickChare>(5, SimTime::millis(10))));
  job.start();
  rig.sim.run();
  ASSERT_EQ(rig.tracer.intervals().size(), 5u);
  for (const auto& ti : rig.tracer.intervals()) {
    EXPECT_EQ(ti.job, "app");
    EXPECT_EQ(ti.core, 0);
    EXPECT_NEAR((ti.end - ti.start).to_seconds(), 0.010, 1e-6);
  }
}

TEST(TimelineTest, BusyFractionMatchesLoad) {
  TraceRig rig;
  RuntimeJob& job = rig.make_job("app", {0});
  static_cast<void>(job.add_chare(std::make_unique<TickChare>(10, SimTime::millis(50))));
  job.start();
  rig.sim.run();
  const SimTime end = job.finish_time();
  EXPECT_NEAR(rig.tracer.busy_fraction(0, "app", SimTime::zero(), end), 1.0,
              0.02);
  EXPECT_DOUBLE_EQ(rig.tracer.busy_fraction(1, "app", SimTime::zero(), end),
                   0.0);
}

TEST(TimelineTest, TwoJobsOnOneCoreBothVisible) {
  TraceRig rig;
  RuntimeJob& app = rig.make_job("app", {0});
  RuntimeJob& bg = rig.make_job("bg", {0});
  static_cast<void>(app.add_chare(std::make_unique<TickChare>(10, SimTime::millis(20))));
  static_cast<void>(bg.add_chare(std::make_unique<TickChare>(10, SimTime::millis(20))));
  app.start();
  bg.start();
  rig.sim.run();
  const SimTime end = std::max(app.finish_time(), bg.finish_time());
  const double app_frac =
      rig.tracer.busy_fraction(0, "app", SimTime::zero(), end);
  const double bg_frac =
      rig.tracer.busy_fraction(0, "bg", SimTime::zero(), end);
  // Both share the core; wall intervals overlap, so each job's intervals
  // cover most of the window (the long Projections bars of Figure 1b).
  EXPECT_GT(app_frac, 0.8);
  EXPECT_GT(bg_frac, 0.8);
}

TEST(TimelineTest, AsciiRenderShowsBusyAndIdle) {
  TraceRig rig;
  RuntimeJob& job = rig.make_job("app", {0});
  static_cast<void>(job.add_chare(std::make_unique<TickChare>(4, SimTime::millis(25))));
  job.start();
  rig.sim.run();
  std::ostringstream os;
  // Render a window twice the busy period: half the row must be idle dots.
  rig.tracer.render_ascii(os, 2, SimTime::zero(), SimTime::millis(200), 40);
  const std::string out = os.str();
  EXPECT_NE(out.find("core 0"), std::string::npos);
  EXPECT_NE(out.find("core 1"), std::string::npos);
  EXPECT_NE(out.find('A'), std::string::npos);  // busy buckets (job "app")
  EXPECT_NE(out.find('.'), std::string::npos);  // idle buckets
}

TEST(TimelineTest, AsciiRenderArgumentValidation) {
  TimelineTracer tracer;
  std::ostringstream os;
  EXPECT_THROW(
      tracer.render_ascii(os, 1, SimTime::seconds(1), SimTime::zero(), 10),
      CheckFailure);
  EXPECT_THROW(tracer.render_ascii(os, 1, SimTime::zero(), SimTime::seconds(1), 0),
               CheckFailure);
}

TEST(TimelineTest, CsvExportWellFormed) {
  TraceRig rig;
  RuntimeJob& job = rig.make_job("app", {0});
  static_cast<void>(job.add_chare(std::make_unique<TickChare>(3, SimTime::millis(5))));
  job.start();
  rig.sim.run();
  std::ostringstream os;
  rig.tracer.write_csv(os);
  std::istringstream in{os.str()};
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1 + 3);  // header + one row per task
  EXPECT_EQ(os.str().substr(0, 4), "job,");
}

TEST(TimelineTest, ClearResets) {
  TraceRig rig;
  RuntimeJob& job = rig.make_job("app", {0});
  static_cast<void>(job.add_chare(std::make_unique<TickChare>(3, SimTime::millis(5))));
  job.start();
  rig.sim.run();
  EXPECT_FALSE(rig.tracer.intervals().empty());
  rig.tracer.clear();
  EXPECT_TRUE(rig.tracer.intervals().empty());
  EXPECT_TRUE(rig.tracer.lb_marks().empty());
}

// ---------------------------------------------------------------- profiles

TEST(ProfileTest, QuietCoresProfileAsIdle) {
  TraceRig rig;
  RuntimeJob& job = rig.make_job("app", {0});
  static_cast<void>(job.add_chare(std::make_unique<TickChare>(4, SimTime::millis(25))));
  job.start();
  rig.sim.run();
  const auto profiles = profile_cores(rig.tracer, 4, SimTime::zero(),
                                      SimTime::millis(200));
  ASSERT_EQ(profiles.size(), 4u);
  EXPECT_NEAR(profiles[0].busy_fraction, 0.5, 0.02);  // 100 ms of 200 ms
  EXPECT_NEAR(profiles[0].by_job.at("app"), 0.5, 0.02);
  for (int c = 1; c < 4; ++c) {
    EXPECT_DOUBLE_EQ(profiles[static_cast<std::size_t>(c)].busy_fraction, 0.0);
    EXPECT_TRUE(profiles[static_cast<std::size_t>(c)].by_job.empty());
  }
}

TEST(ProfileTest, ContendedCoreShowsProjectionsArtifact) {
  // Two jobs sharing a core: wall-interval fractions overlap and sum past
  // 1.0 while the union stays at 1.0 — the paper's Figure 1 caveat.
  TraceRig rig;
  RuntimeJob& app = rig.make_job("app", {0});
  RuntimeJob& bg = rig.make_job("bg", {0});
  static_cast<void>(app.add_chare(std::make_unique<TickChare>(10, SimTime::millis(20))));
  static_cast<void>(bg.add_chare(std::make_unique<TickChare>(10, SimTime::millis(20))));
  app.start();
  bg.start();
  rig.sim.run();
  const SimTime end = std::max(app.finish_time(), bg.finish_time());
  const auto profiles =
      profile_cores(rig.tracer, 1, SimTime::zero(), end);
  const CoreProfile& p = profiles[0];
  EXPECT_NEAR(p.busy_fraction, 1.0, 0.02);
  EXPECT_GT(p.by_job.at("app") + p.by_job.at("bg"), 1.5);
}

TEST(ProfileTest, TableHasARowPerCoreAndAColumnPerJob) {
  TraceRig rig;
  RuntimeJob& app = rig.make_job("app", {0});
  RuntimeJob& bg = rig.make_job("bg", {1});
  static_cast<void>(app.add_chare(std::make_unique<TickChare>(2, SimTime::millis(5))));
  static_cast<void>(bg.add_chare(std::make_unique<TickChare>(2, SimTime::millis(5))));
  app.start();
  bg.start();
  rig.sim.run();
  const auto profiles = profile_cores(rig.tracer, 2, SimTime::zero(),
                                      SimTime::millis(100));
  const Table table = profile_table(profiles);
  std::ostringstream os;
  table.print(os);
  EXPECT_NE(os.str().find("app %"), std::string::npos);
  EXPECT_NE(os.str().find("bg %"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
}

TEST(ProfileTest, IterationDurationsFromJob) {
  TraceRig rig;
  RuntimeJob& job = rig.make_job("app", {0, 1});
  // TickChare does not report iterations; use a tiny local chare that does.
  class IterChare final : public Chare {
   public:
    void on_start() override { send(id(), 0, {}); }
    SimTime cost(const Message&) const override { return SimTime::millis(10); }
    void execute(Message&) override {
      report_iteration(iter_);
      if (++iter_ >= 6) {
        finish();
        return;
      }
      send(id(), 0, {});
    }

   private:
    int iter_ = 0;
  };
  static_cast<void>(job.add_chare(std::make_unique<IterChare>()));
  static_cast<void>(job.add_chare(std::make_unique<IterChare>()));
  job.start();
  rig.sim.run();
  const SampleSet durations = iteration_durations(job);
  ASSERT_EQ(durations.size(), 6u);
  EXPECT_NEAR(durations.mean(), 0.010, 1e-3);
}

TEST(ProfileTest, TaskDurationHistogramShowsInterferenceTail) {
  TraceRig rig;
  RuntimeJob& app = rig.make_job("app", {0, 1});
  RuntimeJob& bg = rig.make_job("bg", {1});  // interferes with PE1 only
  static_cast<void>(app.add_chare(std::make_unique<TickChare>(10, SimTime::millis(10))));
  static_cast<void>(app.add_chare(std::make_unique<TickChare>(10, SimTime::millis(10))));
  static_cast<void>(bg.add_chare(std::make_unique<TickChare>(40, SimTime::millis(10))));
  app.start();
  bg.start();
  rig.sim.run();
  const Histogram h = task_duration_histogram(rig.tracer, "app", 4);
  EXPECT_EQ(h.count(), 20u);
  // Core 0's tasks take ~10 ms, core 1's ~20 ms (shared with bg): the
  // distribution is bimodal — the top bucket holds the stretched tasks
  // and a lower bucket the clean ones.
  EXPECT_GT(h.buckets().back(), 0);
  int populated = 0;
  for (const auto n : h.buckets())
    if (n > 0) ++populated;
  EXPECT_GE(populated, 2);
}

TEST(ProfileTest, WindowValidation) {
  TimelineTracer tracer;
  EXPECT_THROW(profile_cores(tracer, 0, SimTime::zero(), SimTime::seconds(1)),
               CheckFailure);
  EXPECT_THROW(profile_cores(tracer, 1, SimTime::seconds(1), SimTime::zero()),
               CheckFailure);
}

}  // namespace
}  // namespace cloudlb
