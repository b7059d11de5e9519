#pragma once

#include <atomic>
#include <cstdint>
#include <exception>

#include "util/small_function.h"

namespace cloudlb {

/// One piece of work run on an idle host core while its caller goes on,
/// then joined: the simulator starts a Mol3D force computation when its
/// simulated task starts and joins it when the task completes
/// (docs/runtime.md, "Work off the engine thread").
///
/// The workers are one process-wide pool of hardware_jobs() − 1 threads,
/// started by the first start() (none on a one-thread host, where every
/// piece of work runs inside join()). They take work from a bounded
/// lock-free queue, poll it briefly when it runs dry, then sleep; start()
/// wakes a worker only when one sleeps, so a hand-off to a polling worker
/// makes no system call. Polling workers and waiting joiners yield every
/// few polls, so when every core is taken (a `--jobs` grid) they do not
/// hold one from a thread with work to do. start() and join() never
/// allocate once the pool is up (SimAllocTest pins it), and any number of
/// threads may start and join work at once, each on its own handles.
///
/// join() waits for the work. While it waits it runs queued work itself,
/// its own or another handle's, so work no worker has claimed yet runs on
/// the joining thread rather than waiting for one; a full queue or an
/// empty pool leaves the work to join() alone. An exception thrown by the
/// work is rethrown by join(). The destructor joins too, so a handle torn
/// down by an exception never leaves a worker on freed state.
class Offload {
 public:
  using Work = SmallFunction<void()>;

  Offload() = default;
  /// Joins; an exception the work threw is logged, not rethrown.
  ~Offload();
  // Workers hold the handle's address until the work is done.
  Offload(const Offload&) = delete;
  Offload& operator=(const Offload&) = delete;

  /// Hands `work` to the pool. The handle must be idle: never started,
  /// or joined since. Everything the work touches must stay valid, and
  /// untouched by other threads, until join() returns.
  void start(Work work);

  /// Whether work was started and has not been joined.
  [[nodiscard]] bool started() const {
    return state_.load(std::memory_order_relaxed) != kIdle;
  }

  /// Returns once the work has finished (running it here if no worker has
  /// claimed it), leaving the handle idle, and rethrows the work's
  /// exception. Everything the work wrote is visible to the caller. Does
  /// nothing on an idle handle.
  void join();

  /// Worker threads in the pool, starting it if it is not up yet.
  [[nodiscard]] static int workers();

 private:
  friend class OffloadPool;

  enum State : std::uint32_t {
    kIdle,    ///< no work
    kLocal,   ///< started, not queued: join() runs it
    kQueued,  ///< in the queue or running on some thread
    kDone,    ///< finished; join() has not returned yet
  };

  /// Runs the work on the calling thread, records its exception and marks
  /// it done, which is the last access to the handle.
  void run() noexcept;

  Work work_;
  std::exception_ptr error_;
  std::atomic<std::uint32_t> state_{kIdle};
};

}  // namespace cloudlb
