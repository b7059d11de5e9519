#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/check.h"
#include "util/function_ref.h"
#include "util/histogram.h"
#include "util/offload.h"
#include "util/rng.h"
#include "util/sim_time.h"
#include "util/small_function.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace cloudlb {
namespace {

// ---------------------------------------------------------------- SimTime

TEST(SimTimeTest, DefaultIsZero) {
  EXPECT_EQ(SimTime{}.ns(), 0);
  EXPECT_TRUE(SimTime{}.is_zero());
}

TEST(SimTimeTest, UnitConstructors) {
  EXPECT_EQ(SimTime::nanos(5).ns(), 5);
  EXPECT_EQ(SimTime::micros(5).ns(), 5'000);
  EXPECT_EQ(SimTime::millis(5).ns(), 5'000'000);
  EXPECT_EQ(SimTime::seconds(5).ns(), 5'000'000'000);
}

TEST(SimTimeTest, FromSecondsRounds) {
  EXPECT_EQ(SimTime::from_seconds(1.5e-9).ns(), 2);
  EXPECT_EQ(SimTime::from_seconds(1.4e-9).ns(), 1);
  EXPECT_EQ(SimTime::from_seconds(-1.5e-9).ns(), -2);
}

TEST(SimTimeTest, Arithmetic) {
  const SimTime a = SimTime::millis(3);
  const SimTime b = SimTime::millis(1);
  EXPECT_EQ((a + b).ns(), 4'000'000);
  EXPECT_EQ((a - b).ns(), 2'000'000);
  EXPECT_EQ((a * 3).ns(), 9'000'000);
  EXPECT_EQ((3 * a).ns(), 9'000'000);
  EXPECT_DOUBLE_EQ(a / b, 3.0);
  EXPECT_EQ((a / 3).ns(), 1'000'000);
}

TEST(SimTimeTest, ScaleByDouble) {
  EXPECT_EQ((SimTime::seconds(2) * 0.25).ns(), 500'000'000);
}

TEST(SimTimeTest, CompoundAssignment) {
  SimTime t = SimTime::seconds(1);
  t += SimTime::millis(500);
  EXPECT_EQ(t.ns(), 1'500'000'000);
  t -= SimTime::seconds(2);
  EXPECT_TRUE(t.is_negative());
}

TEST(SimTimeTest, Comparisons) {
  EXPECT_LT(SimTime::millis(1), SimTime::millis(2));
  EXPECT_GT(SimTime::seconds(1), SimTime::millis(999));
  EXPECT_EQ(SimTime::micros(1000), SimTime::millis(1));
}

TEST(SimTimeTest, ToSecondsRoundTrip) {
  const SimTime t = SimTime::from_seconds(123.456789);
  EXPECT_NEAR(t.to_seconds(), 123.456789, 1e-9);
  EXPECT_NEAR(t.to_millis(), 123456.789, 1e-6);
}

TEST(SimTimeTest, ToStringPicksUnit) {
  EXPECT_EQ(SimTime::zero().to_string(), "0s");
  EXPECT_EQ(SimTime::seconds(2).to_string(), "2.000s");
  EXPECT_EQ(SimTime::millis(12).to_string(), "12.000ms");
  EXPECT_EQ(SimTime::micros(7).to_string(), "7.000us");
  EXPECT_EQ(SimTime::nanos(3).to_string(), "3ns");
}

// ------------------------------------------------------------------ check

TEST(CheckTest, PassingCheckIsSilent) {
  EXPECT_NO_THROW(CLB_CHECK(1 + 1 == 2));
}

TEST(CheckTest, FailingCheckThrows) {
  EXPECT_THROW(CLB_CHECK(false), CheckFailure);
}

TEST(CheckTest, MessageIsIncluded) {
  try {
    CLB_CHECK_MSG(false, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng{9};
  for (int i = 0; i < 10'000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng{4};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2'000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng{4};
  EXPECT_EQ(rng.uniform_int(5, 5), 5);
}

TEST(RngTest, UniformIntRejectsInvertedRange) {
  Rng rng{4};
  EXPECT_THROW(rng.uniform_int(2, 1), CheckFailure);
}

TEST(RngTest, NormalMomentsRoughlyCorrect) {
  Rng rng{11};
  StatAccumulator acc;
  for (int i = 0; i < 50'000; ++i) acc.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng{12};
  StatAccumulator acc;
  for (int i = 0; i < 50'000; ++i) acc.add(rng.exponential(3.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.1);
  EXPECT_GE(acc.min(), 0.0);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng{13};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a{77};
  Rng child = a.split();
  EXPECT_NE(a.next_u64(), child.next_u64());
}

// ------------------------------------------------------------------ stats

TEST(StatAccumulatorTest, EmptyDefaults) {
  StatAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
  EXPECT_THROW(acc.min(), CheckFailure);
}

TEST(StatAccumulatorTest, MeanVarianceExtrema) {
  StatAccumulator acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(StatAccumulatorTest, MergeMatchesCombinedStream) {
  StatAccumulator all, left, right;
  Rng rng{5};
  for (int i = 0; i < 1'000; ++i) {
    const double x = rng.normal(0.0, 1.0);
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(StatAccumulatorTest, MergeWithEmptyIsIdentity) {
  StatAccumulator acc, empty;
  acc.add(3.0);
  acc.merge(empty);
  EXPECT_EQ(acc.count(), 1u);
  empty.merge(acc);
  EXPECT_EQ(empty.count(), 1u);
  EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(SampleSetTest, PercentilesInterpolate) {
  SampleSet s;
  for (const double x : {10.0, 20.0, 30.0, 40.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 40.0);
  EXPECT_DOUBLE_EQ(s.median(), 25.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 17.5);
}

TEST(SampleSetTest, SingleValue) {
  SampleSet s;
  s.add(7.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 7.0);
  EXPECT_DOUBLE_EQ(s.min(), 7.0);
  EXPECT_DOUBLE_EQ(s.max(), 7.0);
}

TEST(SampleSetTest, AddAfterQueryResortsLazily) {
  SampleSet s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(9.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(LoadImbalanceTest, BalancedIsZero) {
  EXPECT_DOUBLE_EQ(load_imbalance({2.0, 2.0, 2.0}), 0.0);
}

TEST(LoadImbalanceTest, WorstCoreTwiceMeanIsOne) {
  EXPECT_DOUBLE_EQ(load_imbalance({4.0, 1.0, 1.0}), 1.0);
}

TEST(LoadImbalanceTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(load_imbalance({}), 0.0);
  EXPECT_DOUBLE_EQ(load_imbalance({0.0, 0.0}), 0.0);
}

// -------------------------------------------------------------- histogram

TEST(HistogramTest, BucketsValuesLinearly) {
  Histogram h{0.0, 10.0, 5};
  for (const double v : {0.5, 1.5, 2.5, 2.9, 9.9}) h.add(v);
  EXPECT_EQ(h.buckets(), (std::vector<std::int64_t>{2, 2, 0, 0, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.underflow(), 0);
  EXPECT_EQ(h.overflow(), 0);
}

TEST(HistogramTest, ClampsOutOfRange) {
  Histogram h{0.0, 1.0, 2};
  h.add(-5.0);
  h.add(42.0);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 1);
  EXPECT_EQ(h.buckets()[0], 1);
  EXPECT_EQ(h.buckets()[1], 1);
}

TEST(HistogramTest, BucketEdges) {
  Histogram h{2.0, 12.0, 5};
  EXPECT_DOUBLE_EQ(h.bucket_lo(0), 2.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 8.0);
  EXPECT_DOUBLE_EQ(h.bucket_lo(5), 12.0);
}

TEST(HistogramTest, PrintRendersBars) {
  Histogram h{0.0, 2.0, 2};
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  std::ostringstream os;
  h.print(os, "s", 10);
  const std::string out = os.str();
  EXPECT_NE(out.find("##########"), std::string::npos);  // peak bucket
  EXPECT_NE(out.find("#####"), std::string::npos);
}

TEST(HistogramTest, Validation) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), CheckFailure);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), CheckFailure);
}

// ------------------------------------------------------------------ table

TEST(TableTest, AlignsColumns) {
  Table t({"a", "longer"});
  t.add_row({"xxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a      longer"), std::string::npos);
  EXPECT_NE(out.find("xxxxx  1"), std::string::npos);
}

TEST(TableTest, RowArityEnforced) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckFailure);
}

TEST(TableTest, CsvEscapesSpecialCells) {
  Table t({"name", "note"});
  t.add_row({"x,y", "say \"hi\""});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"x,y\""), std::string::npos);
  EXPECT_NE(os.str().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TableTest, NumFormatsPrecision) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.0, 0), "3");
}

// --------------------------------------------------------- SmallFunction

TEST(SmallFunctionTest, InvokesAndReportsInline) {
  SmallFunction<int(int), 32> f = [](int x) { return x + 1; };
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_TRUE(f.is_inline());
  EXPECT_EQ(f(41), 42);
}

TEST(SmallFunctionTest, EmptyIsFalseAndInline) {
  SmallFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(f.is_inline());  // no storage at all
  EXPECT_TRUE(f == nullptr);
  f = nullptr;
  EXPECT_FALSE(static_cast<bool>(f));
}

TEST(SmallFunctionTest, OverBudgetCaptureGoesToHeapButStillWorks) {
  struct Big {
    std::uint64_t words[12];  // 96 bytes > the 32-byte budget below
  };
  Big big{};
  big.words[0] = 7;
  SmallFunction<std::uint64_t(), 32> f = [big] { return big.words[0]; };
  static_assert(!SmallFunction<std::uint64_t(), 32>::fits_inline<Big>());
  EXPECT_FALSE(f.is_inline());
  EXPECT_EQ(f(), 7u);
}

TEST(SmallFunctionTest, MoveTransfersOwnership) {
  int calls = 0;
  SmallFunction<void()> a = [&calls] { ++calls; };
  SmallFunction<void()> b = std::move(a);
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  b();
  EXPECT_EQ(calls, 1);
  a = std::move(b);
  a();
  EXPECT_EQ(calls, 2);
}

TEST(SmallFunctionTest, HoldsMoveOnlyCapture) {
  auto p = std::make_unique<int>(5);
  SmallFunction<int()> f = [p = std::move(p)] { return *p; };
  EXPECT_EQ(f(), 5);
  SmallFunction<int()> g = std::move(f);
  EXPECT_EQ(g(), 5);
}

TEST(SmallFunctionTest, DestroysCaptureOnReset) {
  auto counter = std::make_shared<int>(0);
  struct Probe {
    std::shared_ptr<int> n;
    ~Probe() {
      if (n) ++*n;
    }
    Probe(std::shared_ptr<int> p) : n{std::move(p)} {}
    Probe(Probe&&) = default;
    void operator()() const {}
  };
  {
    SmallFunction<void()> f = Probe{counter};
    EXPECT_EQ(*counter, 0);
    f.reset();
    EXPECT_EQ(*counter, 1);
  }
  EXPECT_EQ(*counter, 1);  // reset() already destroyed; dtor must not double
}

// ------------------------------------------------------------ thread pool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(hits.size(), 4,
               [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelMapPreservesIndexOrder) {
  for (const int jobs : {1, 2, 7}) {
    const std::vector<std::size_t> out = parallel_map<std::size_t>(
        257, jobs, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
  }
}

TEST(ThreadPoolTest, ZeroItemsIsFine) {
  parallel_for(0, 8, [](std::size_t) { FAIL(); });
  EXPECT_TRUE(parallel_map<int>(0, 8, [](std::size_t) { return 1; }).empty());
}

TEST(ThreadPoolTest, PropagatesFirstException) {
  EXPECT_THROW(parallel_for(100, 4,
                            [](std::size_t i) {
                              if (i == 37) throw std::runtime_error{"boom"};
                            }),
               std::runtime_error);
}

TEST(ThreadPoolTest, CheckFailureDuringParallelForJoinsCleanly) {
  // Shutdown-hardening regression (run under TSan in CI): a CLB_CHECK
  // tripping mid-task must unwind through the RAII pool — every worker
  // joined, the first failure rethrown, no thread left to call
  // std::terminate. Repeated so TSan sees many interleavings.
  for (int round = 0; round < 20; ++round) {
    std::atomic<int> visited{0};
    EXPECT_THROW(parallel_for(512, 8,
                              [&](std::size_t i) {
                                visited.fetch_add(1,
                                                  std::memory_order_relaxed);
                                CLB_CHECK_MSG(i != 129, "injected failure");
                              },
                              /*chunk=*/1),
                 CheckFailure);
    // The failing index ran, and the early-exit latch kept the pool from
    // visiting everything after the failure was recorded.
    EXPECT_GE(visited.load(), 1);
  }
}

TEST(ThreadPoolTest, ConcurrentParallelMapFromTwoCallers) {
  // Two overlapping parallel_map invocations (the ParallelGrid pattern:
  // nested parallelism across scenario fans) must not share any state —
  // each call owns its threads, cursor, and error latch. TSan verifies
  // the absence of data races between the two pools.
  ThreadPool outer;
  std::vector<int> a, b;
  outer.spawn([&a] {
    a = parallel_map<int>(999, 4,
                          [](std::size_t i) { return static_cast<int>(i); });
  });
  outer.spawn([&b] {
    b = parallel_map<int>(999, 4,
                          [](std::size_t i) { return static_cast<int>(i) * 2; });
  });
  outer.join_all();
  ASSERT_EQ(a.size(), 999u);
  ASSERT_EQ(b.size(), 999u);
  for (int i = 0; i < 999; ++i) {
    EXPECT_EQ(a[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(b[static_cast<std::size_t>(i)], i * 2);
  }
}

TEST(ThreadPoolTest, PoolDestructorJoinsUnjoinedThreads) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool;
    for (int i = 0; i < 4; ++i)
      pool.spawn([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(pool.size(), 4u);
    // No explicit join_all(): the destructor must reap all four.
  }
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPoolTest, NonPositiveJobsUsesHardware) {
  EXPECT_GE(hardware_jobs(), 1);
  const std::vector<int> out =
      parallel_map<int>(16, 0, [](std::size_t i) { return static_cast<int>(i); });
  for (int i = 0; i < 16; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i);
}

// ------------------------------------------------------------ FunctionRef

TEST(FunctionRefTest, InvokesCapturingLambda) {
  int hits = 0;
  auto bump = [&hits](int by) { hits += by; };
  const FunctionRef<void(int)> ref = bump;
  ref(3);
  ref(4);
  EXPECT_EQ(hits, 7);
}

TEST(FunctionRefTest, InvokesMutableCallableInPlace) {
  // The reference aliases the callable rather than copying it, so state
  // mutated through one invocation is visible to the next — and to the
  // original object.
  struct Counter {
    int calls = 0;
    int operator()() { return ++calls; }
  };
  Counter counter;
  const FunctionRef<int()> ref = counter;
  EXPECT_EQ(ref(), 1);
  EXPECT_EQ(ref(), 2);
  EXPECT_EQ(counter.calls, 2);
}

TEST(FunctionRefTest, ForwardsReturnValueAndArguments) {
  auto add = [](int a, int b) { return a + b; };
  const FunctionRef<int(int, int)> ref = add;
  EXPECT_EQ(ref(19, 23), 42);
}

TEST(FunctionRefTest, BindsTemporaryForTheFullExpression) {
  // The intended calling convention: a lambda temporary passed straight
  // into a function taking FunctionRef lives until the call returns.
  const auto call_through = [](FunctionRef<int(int)> fn) { return fn(5); };
  int base = 100;
  EXPECT_EQ(call_through([&base](int x) { return base + x; }), 105);
}

// ------------------------------------------------------------- WorkerTeam

TEST(WorkerTeamTest, RunRoundCoversEveryWorkerIndexEachRound) {
  constexpr int kWorkers = 4;
  WorkerTeam team{kWorkers};
  ASSERT_EQ(team.workers(), kWorkers);
  std::vector<std::atomic<int>> hits(kWorkers);
  for (int round = 1; round <= 3; ++round) {
    team.run_round(
        [&hits](int worker) { hits[static_cast<std::size_t>(worker)]++; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), round);
  }
}

TEST(WorkerTeamTest, RunRoundBorrowsTheClosureWithoutCopying) {
  // Regression pin for the run_round signature: the worker task is a
  // FunctionRef — borrowed, never copied or type-erased into an owning
  // wrapper — so per-worker effects land in the caller's own closure
  // state, however large the capture is.
  WorkerTeam team{3};
  struct Wide {
    long long lanes[12] = {};  // far past any small-buffer budget
  } wide;
  team.run_round([&wide](int worker) {
    wide.lanes[static_cast<std::size_t>(worker)] = worker + 1;
  });
  EXPECT_EQ(wide.lanes[0], 1);
  EXPECT_EQ(wide.lanes[1], 2);
  EXPECT_EQ(wide.lanes[2], 3);
}


// ---------------------------------------------------------------- Offload

/// Occupies every pool worker until destroyed, so work started meanwhile
/// stays queued.
class BusyWorkers {
 public:
  BusyWorkers() : blockers_(static_cast<std::size_t>(Offload::workers())) {
    for (Offload& b : blockers_) b.start([this] {
      entered_.fetch_add(1);
      while (!release_.load()) std::this_thread::yield();
    });
    while (entered_.load() < static_cast<int>(blockers_.size()))
      std::this_thread::yield();
  }
  ~BusyWorkers() {
    release_.store(true);
    for (Offload& b : blockers_) b.join();
  }
  BusyWorkers(const BusyWorkers&) = delete;
  BusyWorkers& operator=(const BusyWorkers&) = delete;

 private:
  std::atomic<int> entered_{0};
  std::atomic<bool> release_{false};
  std::vector<Offload> blockers_;
};

TEST(OffloadTest, JoinAfterTheWorkIsDone) {
  Offload task;
  EXPECT_FALSE(task.started());
  task.join();  // an idle handle joins at once
  std::atomic<int> runs{0};
  task.start([&runs] { runs.fetch_add(1); });
  EXPECT_TRUE(task.started());
  // Without workers the work waits for join(); with them, one runs it.
  if (Offload::workers() > 0)
    while (runs.load() == 0) std::this_thread::yield();
  task.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_FALSE(task.started());
  // Joined, the handle takes new work.
  task.start([&runs] { runs.fetch_add(1); });
  task.join();
  EXPECT_EQ(runs.load(), 2);
}

TEST(OffloadTest, JoinRunsUnclaimedWorkItself) {
  BusyWorkers busy;
  std::thread::id ran_on;
  Offload task;
  task.start([&ran_on] { ran_on = std::this_thread::get_id(); });
  task.join();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(OffloadTest, JoinRethrowsTheWorksException) {
  Offload task;
  task.start([] { CLB_CHECK_MSG(false, "work failed on purpose"); });
  try {
    task.join();
    ADD_FAILURE() << "join swallowed the work's exception";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string{e.what()}.find("work failed on purpose"),
              std::string::npos)
        << e.what();
  }
  // Rethrown once: the handle is idle and clean again.
  EXPECT_FALSE(task.started());
  bool ran = false;
  task.start([&ran] { ran = true; });
  EXPECT_NO_THROW(task.join());
  EXPECT_TRUE(ran);
}

TEST(OffloadTest, StartingBusyHandleIsRejected) {
  Offload task;
  task.start([] {});
  EXPECT_THROW(task.start([] {}), CheckFailure);
  task.join();
}

TEST(OffloadTest, DestroyedHandleFinishesRunningWorkFirst) {
  if (Offload::workers() == 0) GTEST_SKIP() << "no pool workers on this host";
  std::atomic<bool> entered{false}, release{false};
  bool finished = false;
  auto task = std::make_unique<Offload>();
  task->start([&] {
    entered.store(true);
    while (!release.load()) std::this_thread::yield();
    finished = true;
  });
  while (!entered.load()) std::this_thread::yield();
  std::thread releaser{[&release] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release.store(true);
  }};
  task.reset();  // waits for the worker
  EXPECT_TRUE(finished);
  releaser.join();
}

TEST(OffloadTest, DestroyedHandleRunsQueuedWorkItself) {
  BusyWorkers busy;
  bool ran = false;
  {
    Offload task;
    task.start([&ran] { ran = true; });
  }
  EXPECT_TRUE(ran);
}

TEST(OffloadTest, DestroyedHandleLogsTheWorksException) {
  bool ran = false;
  {
    Offload task;
    task.start([&ran] {
      ran = true;
      throw std::runtime_error{"never joined"};
    });
  }
  EXPECT_TRUE(ran);
}

TEST(OffloadTest, ManyProducersShareThePool) {
  // As `--jobs` grids do: several threads start and join work at once,
  // each on its own handles, and joiners run each other's queued work.
  constexpr int kProducers = 4;
  constexpr int kRounds = 500;
  constexpr int kInFlight = 8;
  std::vector<std::uint64_t> sums(kProducers, 0);
  {
    std::vector<std::thread> producers;
    for (int t = 0; t < kProducers; ++t)
      producers.emplace_back([t, &sums] {
        std::vector<Offload> tasks(kInFlight);
        std::vector<std::uint64_t> out(kInFlight, 0);
        for (int r = 0; r < kRounds; ++r) {
          for (int k = 0; k < kInFlight; ++k) {
            std::uint64_t* slot = &out[static_cast<std::size_t>(k)];
            const auto v = static_cast<std::uint64_t>(r * kInFlight + k);
            tasks[static_cast<std::size_t>(k)].start([slot, v] { *slot = v; });
          }
          for (int k = 0; k < kInFlight; ++k) {
            tasks[static_cast<std::size_t>(k)].join();
            sums[static_cast<std::size_t>(t)] += out[static_cast<std::size_t>(k)];
          }
        }
      });
    for (std::thread& p : producers) p.join();
  }
  const std::uint64_t n = std::uint64_t{kRounds} * kInFlight;
  for (const std::uint64_t sum : sums) EXPECT_EQ(sum, n * (n - 1) / 2);
}

}  // namespace
}  // namespace cloudlb
