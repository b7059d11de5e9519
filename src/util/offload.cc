#include "util/offload.h"

#include <array>
#include <cstddef>
#include <thread>
#include <utility>

#include "util/check.h"
#include "util/log.h"
#include "util/thread_pool.h"

namespace cloudlb {

namespace {

/// Queue polls a worker makes before it sleeps: tens of microseconds,
/// more than the gap between two Mol3D computations on one engine.
constexpr int kPolls = 2000;

/// One step of a poll loop: a pause, and every kYieldEvery-th step a
/// yield, so a poller hands its core to a runnable thread (a grid cell's
/// engine, or the worker whose work a joiner waits for) when every core
/// is taken.
constexpr int kYieldEvery = 32;

void relax(int step) {
  if (step % kYieldEvery == 0) {
    std::this_thread::yield();
    return;
  }
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Bounded multi-producer, multi-consumer queue of handles (Vyukov's
/// array queue): each cell carries a sequence number that says whether it
/// is free for the push at position p (seq == p) or holds the item for
/// the pop at p (seq == p + 1). Neither end locks or allocates.
class HandleQueue {
 public:
  HandleQueue() {
    for (std::size_t i = 0; i < kCapacity; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  /// False when the queue is full.
  bool push(Offload* item) {
    std::size_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & (kCapacity - 1)];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      if (seq == pos) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.item = item;
          // seq_cst, as the load in pop(): see OffloadPool::submit.
          cell.seq.store(pos + 1, std::memory_order_seq_cst);
          return true;
        }
      } else if (seq < pos) {
        return false;  // the cell still holds the item pushed a lap ago
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// Null when the queue is empty (or its next item is not yet published).
  Offload* pop() {
    std::size_t pos = head_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & (kCapacity - 1)];
      const std::size_t seq = cell.seq.load(std::memory_order_seq_cst);
      if (seq == pos + 1) {
        if (head_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          Offload* item = cell.item;
          cell.seq.store(pos + kCapacity, std::memory_order_release);
          return item;
        }
      } else if (seq < pos + 1) {
        return nullptr;
      } else {
        pos = head_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  /// More than the computations one engine has in flight, at most one
  /// per simulated PE; when it is full, join() runs the work.
  static constexpr std::size_t kCapacity = 256;

  struct Cell {
    std::atomic<std::size_t> seq{0};
    Offload* item = nullptr;
  };

  std::array<Cell, kCapacity> cells_;
  alignas(64) std::atomic<std::size_t> tail_{0};
  alignas(64) std::atomic<std::size_t> head_{0};
};

}  // namespace

/// The process-wide workers behind Offload.
class OffloadPool {
 public:
  OffloadPool() {
    try {
      for (int w = 1; w < hardware_jobs(); ++w)
        threads_.spawn([this] { work(); });
    } catch (...) {
      stop();  // release the workers already running before rethrowing
      throw;
    }
  }
  ~OffloadPool() { stop(); }

  OffloadPool(const OffloadPool&) = delete;
  OffloadPool& operator=(const OffloadPool&) = delete;

  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size());
  }

  /// False when there is no worker or no room: the caller runs the work.
  bool submit(Offload* handle) {
    if (threads_.size() == 0 || !queue_.push(handle)) return false;
    // The push's store and this load, and sleep()'s increment and its
    // pop's load, are all seq_cst: either that pop sees this handle, or
    // this load sees the sleeper.
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      wake_.fetch_add(1, std::memory_order_release);
      wake_.notify_one();
    }
    return true;
  }

  /// Runs one queued piece of work on the calling thread, if there is one.
  bool run_one() {
    Offload* handle = queue_.pop();
    if (handle == nullptr) return false;
    handle->run();
    return true;
  }

 private:
  void work() {
    while (!stop_.load(std::memory_order_acquire)) {
      if (run_one() || poll()) continue;
      sleep();
    }
  }

  bool poll() {
    for (int i = 1; i <= kPolls; ++i) {
      if (run_one()) return true;
      relax(i);
    }
    return false;
  }

  void sleep() {
    const std::uint32_t seen = wake_.load(std::memory_order_acquire);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    Offload* handle = queue_.pop();
    if (handle == nullptr && !stop_.load(std::memory_order_acquire))
      wake_.wait(seen, std::memory_order_acquire);
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    if (handle != nullptr) handle->run();
  }

  void stop() noexcept {
    stop_.store(true, std::memory_order_release);
    wake_.fetch_add(1, std::memory_order_release);
    wake_.notify_all();
    threads_.join_all();
  }

  HandleQueue queue_;
  std::atomic<int> sleepers_{0};     ///< workers in (or entering) sleep()
  std::atomic<std::uint32_t> wake_{0};  ///< bumped to wake sleepers
  std::atomic<bool> stop_{false};
  ThreadPool threads_;  ///< declared last: joined first
};

namespace {

OffloadPool& pool() {
  static OffloadPool instance;
  return instance;
}

}  // namespace

Offload::~Offload() {
  try {
    join();
  } catch (const std::exception& e) {
    CLB_WARN("offloaded work failed and was never joined: " << e.what());
  } catch (...) {
    CLB_WARN("offloaded work failed and was never joined");
  }
}

void Offload::start(Work work) {
  CLB_CHECK_MSG(state_.load(std::memory_order_relaxed) == kIdle,
                "Offload::start on a handle whose work is not joined");
  OffloadPool& workers = pool();  // a failed start leaves the handle idle
  work_ = std::move(work);
  error_ = nullptr;
  state_.store(kQueued, std::memory_order_relaxed);
  // The queue's release store publishes work_ and state_ to the worker.
  if (!workers.submit(this)) state_.store(kLocal, std::memory_order_relaxed);
}

void Offload::join() {
  switch (state_.load(std::memory_order_acquire)) {
    case kIdle:
      return;
    case kLocal:
      run();
      break;
    default:
      for (int step = 1; state_.load(std::memory_order_acquire) != kDone;
           ++step) {
        if (!pool().run_one()) relax(step);
      }
  }
  work_ = nullptr;  // the callable dies on the owner's thread
  state_.store(kIdle, std::memory_order_relaxed);
  if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, nullptr));
}

int Offload::workers() { return pool().workers(); }

void Offload::run() noexcept {
  try {
    work_();
  } catch (...) {
    error_ = std::current_exception();
  }
  state_.store(kDone, std::memory_order_release);
}

}  // namespace cloudlb
