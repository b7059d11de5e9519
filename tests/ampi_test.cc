#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "core/balancer_factory.h"
#include "lb/null_lb.h"
#include "machine/machine.h"
#include "runtime/ampi.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "vm/interferer.h"
#include "vm/virtual_machine.h"

namespace cloudlb {
namespace {

using ampi::Rank;

struct AmpiRig {
  explicit AmpiRig(int cores, int lb_period = 0,
                   const std::string& balancer = "null")
      : machine(sim, MachineConfig{.nodes = 2, .cores_per_node = 4, .core_speed_overrides = {}}) {
    std::vector<CoreId> ids(static_cast<std::size_t>(cores));
    std::iota(ids.begin(), ids.end(), 0);
    vm = std::make_unique<VirtualMachine>(machine, "ampi", ids);
    JobConfig config;
    config.name = "ampi";
    config.lb_period = lb_period;
    job = std::make_unique<RuntimeJob>(sim, *vm, config,
                                       make_balancer(balancer));
  }

  void run() {
    job->start();
    sim.run();
    ASSERT_TRUE(job->finished());
  }

  Simulator sim;
  Machine machine;
  std::unique_ptr<VirtualMachine> vm;
  std::unique_ptr<RuntimeJob> job;
};

TEST(AmpiTest, RingTokenAccumulates) {
  // Rank 0 injects a token; each rank adds its id and forwards; rank 0
  // checks the total after a full loop.
  AmpiRig rig{2};
  double final_token = -1.0;
  ampi::populate_ranks(*rig.job, 6, [&](Rank& self) {
    const int next = (self.rank() + 1) % self.world_size();
    const int prev =
        (self.rank() + self.world_size() - 1) % self.world_size();
    if (self.rank() == 0) {
      self.send(next, 7, {0.0});
      self.recv(prev, 7, [&](std::vector<double> token) {
        final_token = token[0];
        self.done();
      });
    } else {
      self.recv(prev, 7, [&, next](std::vector<double> token) {
        self.send(next, 7, {token[0] + self.rank()});
        self.done();
      });
    }
  });
  rig.run();
  EXPECT_DOUBLE_EQ(final_token, 1 + 2 + 3 + 4 + 5);
}

TEST(AmpiTest, UnexpectedMessagesAreQueued) {
  // The send lands before the matching recv is posted.
  AmpiRig rig{2};
  std::vector<double> got;
  ampi::populate_ranks(*rig.job, 2, [&](Rank& self) {
    if (self.rank() == 0) {
      self.send(1, 3, {1.0, 2.0, 3.0});
      self.done();
    } else {
      // Wait long enough that the message is surely buffered, then post.
      self.compute(SimTime::millis(50), [&self, &got] {
        self.recv(0, 3, [&](std::vector<double> data) {
          got = std::move(data);
          self.done();
        });
      });
    }
  });
  rig.run();
  EXPECT_EQ(got, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(AmpiTest, RecvMatchesBySourceAndTag) {
  AmpiRig rig{3};
  std::vector<int> order;
  ampi::populate_ranks(*rig.job, 3, [&](Rank& self) {
    if (self.rank() == 0) {
      self.send(2, 5, {50.0});
      self.done();
    } else if (self.rank() == 1) {
      self.send(2, 9, {90.0});
      self.done();
    } else {
      // Post recvs in the opposite order of likely arrival; matching must
      // go by (src, tag), not arrival order.
      self.compute(SimTime::millis(20), [&self, &order] {
        self.recv(1, 9, [&self, &order](std::vector<double> d) {
          EXPECT_DOUBLE_EQ(d[0], 90.0);
          order.push_back(9);
          self.recv(0, 5, [&self, &order](std::vector<double> d2) {
            EXPECT_DOUBLE_EQ(d2[0], 50.0);
            order.push_back(5);
            self.done();
          });
        });
      });
    }
  });
  rig.run();
  EXPECT_EQ(order, (std::vector<int>{9, 5}));
}

TEST(AmpiTest, FifoPerSourceAndTag) {
  AmpiRig rig{2};
  std::vector<double> seen;
  ampi::populate_ranks(*rig.job, 2, [&](Rank& self) {
    if (self.rank() == 0) {
      for (int i = 0; i < 5; ++i) self.send(1, 1, {static_cast<double>(i)});
      self.done();
    } else {
      const auto recv_loop = std::make_shared<std::function<void()>>();
      // The stored lambda holds itself weakly: pending callbacks own the
      // loop, so it is freed after the last one runs instead of leaking
      // as a self-cycle.
      *recv_loop = [&self, &seen, weak = std::weak_ptr(recv_loop)] {
        const auto loop = weak.lock();
        self.recv(0, 1, [&self, &seen, loop](std::vector<double> d) {
          seen.push_back(d[0]);
          if (seen.size() < 5) {
            (*loop)();
          } else {
            self.done();
          }
        });
      };
      (*recv_loop)();
    }
  });
  rig.run();
  EXPECT_EQ(seen, (std::vector<double>{0, 1, 2, 3, 4}));
}

TEST(AmpiTest, ComputeConsumesVirtualCpu) {
  AmpiRig rig{1};
  ampi::populate_ranks(*rig.job, 1, [&](Rank& self) {
    self.compute(SimTime::millis(250), [&self] {
      self.compute(SimTime::millis(250), [&self] { self.done(); });
    });
  });
  rig.run();
  EXPECT_NEAR(rig.job->elapsed().to_seconds(), 0.5, 0.01);
  EXPECT_NEAR(rig.job->cpu_consumed().to_seconds(), 0.5, 0.01);
}

TEST(AmpiTest, AllreduceSumsAcrossRanks) {
  AmpiRig rig{4};
  std::vector<double> results;
  ampi::populate_ranks(*rig.job, 8, [&](Rank& self) {
    self.allreduce_sum(self.rank() + 1.0, [&](double total) {
      results.push_back(total);
      self.done();
    });
  });
  rig.run();
  ASSERT_EQ(results.size(), 8u);
  for (const double r : results) EXPECT_DOUBLE_EQ(r, 36.0);  // Σ 1..8
}

TEST(AmpiTest, SequentialAllreducesKeepEpochsApart) {
  AmpiRig rig{2};
  int completed = 0;
  ampi::populate_ranks(*rig.job, 4, [&](Rank& self) {
    self.allreduce_sum(1.0, [&](double t1) {
      EXPECT_DOUBLE_EQ(t1, 4.0);
      self.allreduce_sum(2.0, [&](double t2) {
        EXPECT_DOUBLE_EQ(t2, 8.0);
        ++completed;
        self.done();
      });
    });
  });
  rig.run();
  EXPECT_EQ(completed, 4);
}

TEST(AmpiTest, BarrierHoldsFastRanks) {
  AmpiRig rig{4};
  SimTime slow_done, barrier_released;
  ampi::populate_ranks(*rig.job, 4, [&](Rank& self) {
    const SimTime work =
        self.rank() == 3 ? SimTime::millis(400) : SimTime::millis(10);
    self.compute(work, [&, work] {
      if (work == SimTime::millis(400)) slow_done = rig.sim.now();
      self.barrier([&] {
        if (self.rank() == 0) barrier_released = rig.sim.now();
        self.done();
      });
    });
  });
  rig.run();
  EXPECT_GE(barrier_released, slow_done);
  EXPECT_NEAR(barrier_released.to_seconds(), 0.4, 0.01);
}

TEST(AmpiTest, DoubleCollectiveRejected) {
  AmpiRig rig{1};
  ampi::populate_ranks(*rig.job, 1, [&](Rank& self) {
    self.allreduce_sum(1.0, [](double) {});
    EXPECT_THROW(self.allreduce_sum(2.0, [](double) {}), CheckFailure);
    self.done();
  });
  rig.job->start();
  rig.sim.run();
}

TEST(AmpiTest, RingStencilMatchesSerialReference) {
  // 1D periodic smoothing x_i' = (x_{i-1} + x_i + x_{i+1}) / 3, one value
  // per rank, 20 iterations — exercises the full send/recv choreography.
  constexpr int kRanks = 12;
  constexpr int kIters = 20;

  // Serial reference.
  std::vector<double> ref(kRanks);
  for (int i = 0; i < kRanks; ++i) ref[static_cast<std::size_t>(i)] = i * i;
  for (int it = 0; it < kIters; ++it) {
    std::vector<double> next(kRanks);
    for (int i = 0; i < kRanks; ++i) {
      const auto l = static_cast<std::size_t>((i + kRanks - 1) % kRanks);
      const auto r = static_cast<std::size_t>((i + 1) % kRanks);
      next[static_cast<std::size_t>(i)] =
          (ref[l] + ref[static_cast<std::size_t>(i)] + ref[r]) / 3.0;
    }
    ref.swap(next);
  }

  AmpiRig rig{4};
  std::vector<double> finals(kRanks, 0.0);
  ampi::populate_ranks(*rig.job, kRanks, [&](Rank& self) {
    struct State {
      double x;
      int iter = 0;
    };
    auto st = std::make_shared<State>();
    st->x = self.rank() * self.rank();
    const int left = (self.rank() + kRanks - 1) % kRanks;
    const int right = (self.rank() + 1) % kRanks;

    const auto step_fn = std::make_shared<std::function<void()>>();
    // The stored lambda holds itself weakly: pending callbacks own the
    // step, so it is freed after the last one runs instead of leaking as
    // a self-cycle.
    *step_fn = [&self, st, left, right, weak = std::weak_ptr(step_fn),
                &finals] {
      const auto step = weak.lock();
      if (st->iter == kIters) {
        finals[static_cast<std::size_t>(self.rank())] = st->x;
        self.done();
        return;
      }
      // Tag by iteration parity so neighbours one step ahead don't mix.
      const int tag = st->iter % 2;
      self.send(left, tag, {st->x});
      self.send(right, tag, {st->x});
      self.recv(left, tag, [&self, st, right, tag, step](std::vector<double> lv) {
        self.recv(right, tag, [&self, st, lv, step](std::vector<double> rv) {
          self.compute(SimTime::micros(200), [st, lv, rv, step] {
            st->x = (lv[0] + st->x + rv[0]) / 3.0;
            ++st->iter;
            (*step)();
          });
        });
      });
    };
    (*step_fn)();
  });
  rig.run();
  for (int i = 0; i < kRanks; ++i)
    EXPECT_DOUBLE_EQ(finals[static_cast<std::size_t>(i)],
                     ref[static_cast<std::size_t>(i)])
        << "rank " << i;
}

TEST(AmpiTest, SyncAllowsMigrationUnderInterference) {
  // Uneven ranks + a CPU hog on core 0; ranks sync every 4 iterations.
  auto run_with = [&](const std::string& balancer) {
    AmpiRig rig{4, 4, balancer};
    SyntheticInterferer hog{rig.sim, rig.machine, {0}};
    ampi::populate_ranks(*rig.job, 16, [&](Rank& self) {
      auto iter = std::make_shared<int>(0);
      const auto step_fn = std::make_shared<std::function<void()>>();
      // Held weakly by itself, strongly by pending callbacks (no cycle).
      *step_fn = [&self, iter, weak = std::weak_ptr(step_fn)] {
        const auto step = weak.lock();
        if (*iter == 24) {
          self.done();
          return;
        }
        self.compute(SimTime::millis(10), [&self, iter, step] {
          ++*iter;
          if (*iter % 4 == 0 && *iter < 24) {
            self.sync([step] { (*step)(); });
          } else {
            (*step)();
          }
        });
      };
      (*step_fn)();
    });
    hog.start();
    rig.job->start();
    while (!rig.job->finished()) CLB_CHECK(rig.sim.step());
    hog.stop();
    rig.sim.run();
    return std::pair{rig.job->elapsed().to_seconds(),
                     rig.job->counters().migrations};
  };
  const auto [null_time, null_moves] = run_with("null");
  const auto [lb_time, lb_moves] = run_with("ia-refine");
  EXPECT_EQ(null_moves, 0);
  EXPECT_GT(lb_moves, 0);
  EXPECT_LT(lb_time, 0.85 * null_time);
}

TEST(AmpiTest, PopulateValidatesWorld) {
  AmpiRig rig{1};
  EXPECT_THROW(ampi::populate_ranks(*rig.job, 0, [](Rank&) {}),
               CheckFailure);
  EXPECT_THROW(Rank(5, 3, [](Rank&) {}), CheckFailure);
}

TEST(AmpiTest, PopulateRejectsPreSeededJob) {
  // Rank::send routes by `ChareId == rank`, so populate_ranks on a job
  // that already holds a chare would shift every id by one and silently
  // cross-deliver messages. It must refuse instead.
  AmpiRig rig{1};
  static_cast<void>(
      rig.job->add_chare(std::make_unique<Rank>(0, 1, [](Rank& self) {
        self.done();
      })));
  EXPECT_THROW(ampi::populate_ranks(*rig.job, 2, [](Rank& self) {
    self.done();
  }),
               CheckFailure);
}

}  // namespace
}  // namespace cloudlb
