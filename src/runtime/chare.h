#pragma once

#include <cstddef>
#include <vector>

#include "runtime/message.h"
#include "util/sim_time.h"

namespace cloudlb {

class RuntimeJob;

/// A migratable object (Charm++ "chare").
///
/// The application decomposes its work into many chares — more than there
/// are PEs — and the runtime maps and re-maps them to PEs. A chare reacts
/// to messages: for each incoming message the runtime first asks `cost()`
/// (the CPU time the handler will consume, which the simulator charges to
/// the hosting core) and then runs `execute()` (the actual handler logic:
/// real numerics, sends, sync calls).
///
/// Contract around load balancing: a chare participating in periodic LB
/// calls `at_sync()` from `execute()` once per LB period, after which it
/// must go quiet (no sends) until `on_resume_sync()` — this is the AtSync
/// barrier that guarantees no application messages are in flight while
/// objects migrate.
class Chare {
 public:
  Chare() = default;
  Chare(const Chare&) = delete;
  Chare& operator=(const Chare&) = delete;
  virtual ~Chare() = default;

  ChareId id() const { return id_; }

  /// Called once when the job starts; typically sends the first messages.
  virtual void on_start() = 0;

  /// CPU cost the handler for `msg` will consume. Must not mutate state.
  virtual SimTime cost(const Message& msg) const = 0;

  /// Called when the task for `msg` starts, right after cost(msg) has
  /// fixed its duration; execute(msg) follows once that CPU time has been
  /// served. A chare may start work here on another host thread
  /// (util/offload.h) and join it in execute(): in between, its PE runs
  /// nothing else and no LB step can start. docs/runtime.md states what
  /// that work may read and write. Does nothing by default.
  virtual void on_task_start(const Message& /*msg*/) {}

  /// Handler body; runs after `cost(msg)` CPU has been consumed.
  ///
  /// The handler owns `msg.data` while it runs: it may move the payload
  /// out and keep it (a receiver that would otherwise copy the values),
  /// and must not touch it after handing it on. When the handler returns,
  /// RuntimeJob::finish_task offers whatever is left in `msg.data` to this
  /// PE's recycled payloads; a moved-from vector owns no storage, so it is
  /// skipped, and a payload taken over is recycled by nobody but its new
  /// owner.
  virtual void execute(Message& msg) = 0;

  /// Called after a load-balancing step completes (AtSync release).
  virtual void on_resume_sync() {}

  /// Delivers the result of a reduction this chare contribute()d to.
  /// Must be overridden by chares that contribute.
  virtual void on_reduction_result(double /*result*/);

  /// Serialized size used for migration cost (pack/transfer/unpack).
  virtual std::size_t footprint_bytes() const { return 4096; }

 protected:
  /// The job this chare belongs to. Valid after add_chare().
  RuntimeJob& job() const;

  /// An empty payload vector for send(). It is drawn from the recycled
  /// payloads of this chare's PE when one is free, keeping its capacity,
  /// so a chare that builds every payload this way sends without
  /// allocating once the run is warm.
  std::vector<double> new_payload() const;

  /// Hands a buffer the chare no longer needs (a payload-sized scratch
  /// vector) to its PE's recycled payloads, for later new_payload() calls.
  void recycle_payload(std::vector<double> buffer) const;

  /// Sends a message to another chare of the same job. `bytes` of zero
  /// means "payload size + envelope".
  void send(ChareId dest, int tag, std::vector<double> data = {},
            std::size_t bytes = 0) const;

  /// Enters the AtSync barrier (see class comment).
  void at_sync() const;

  /// Contributes to a global sum reduction over all live chares; the
  /// result arrives at every contributor via on_reduction_result(). Like
  /// AtSync, a chare must go quiet after contributing until the result
  /// returns (reductions are global synchronization points).
  void contribute(double value) const;

  /// Declares this chare's work complete; the job finishes when all do.
  void finish() const;

  /// Reports that this chare completed application iteration `iteration`
  /// (used for per-iteration timing and the iteration observer hook).
  void report_iteration(int iteration) const;

 private:
  friend class RuntimeJob;
  RuntimeJob* job_ = nullptr;
  ChareId id_ = -1;
};

}  // namespace cloudlb
