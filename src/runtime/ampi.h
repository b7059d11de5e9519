#pragma once

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "runtime/chare.h"
#include "runtime/job.h"

namespace cloudlb::ampi {

/// A miniature Adaptive-MPI layer on top of the migratable-object runtime.
///
/// The paper's adoption story for MPI codes is AMPI: "user specifies
/// large number of MPI processes implemented as user-level threads by the
/// runtime", which makes ranks migratable and therefore balanceable. This
/// facade provides the same shape in continuation-passing style: each
/// *rank* is a chare (over-decompose by asking for more ranks than
/// cores), and the classic blocking calls become operations that take a
/// continuation:
///
///     rank.compute(SimTime::millis(5), [&rank] {
///       rank.send(right, 0, {x});
///       rank.recv(left, 0, [&rank](std::vector<double> ghost) { ... });
///     });
///
/// Provided operations: point-to-point send/recv with MPI-style matching
/// (by source and tag, FIFO per pair, unexpected-message queue),
/// barrier, allreduce(sum), CPU-consuming compute blocks, and sync() —
/// the AtSync hook that lets the interference-aware balancer migrate
/// ranks.
///
/// The usual MPI collective contract applies: every rank must reach
/// collectives (barrier / allreduce / sync) in the same order.
class Rank final : public Chare {
 public:
  /// `main` runs when the job starts, in this rank's context.
  using Main = std::function<void(Rank&)>;

  Rank(int rank, int world_size, Main main);

  int rank() const { return rank_; }
  int world_size() const { return world_size_; }

  // --- point to point -----------------------------------------------

  /// Sends `data` to `dest` with a user tag (>= 0).
  void send(int dest, int user_tag, std::vector<double> data);

  /// Posts a receive for (src, user_tag); the continuation fires with the
  /// payload once a matching message is (or already was) delivered.
  void recv(int src, int user_tag,
            std::function<void(std::vector<double>)> k);

  // --- compute & collectives ------------------------------------------

  /// Consumes `cpu` of CPU time (it is this, not wall time, that the LB
  /// database records for the rank), then continues.
  void compute(SimTime cpu, std::function<void()> k);

  /// Continues once every rank has entered the barrier.
  void barrier(std::function<void()> k);

  /// Global sum; every rank receives the total.
  void allreduce_sum(double value, std::function<void(double)> k);

  /// Enters the runtime's AtSync barrier: the load balancer may migrate
  /// ranks; the continuation fires on resume.
  void sync(std::function<void()> k);

  /// Declares this rank's program complete.
  void done();

  /// Serialized size for migration cost; adjust to model rank footprint.
  void set_footprint_bytes(std::size_t bytes) { footprint_ = bytes; }

  // --- Chare plumbing (runtime-facing) ---------------------------------

  void on_start() override;
  SimTime cost(const Message& msg) const override;
  void execute(Message& msg) override;
  void on_resume_sync() override;
  std::size_t footprint_bytes() const override { return footprint_; }

 private:
  struct PendingRecv {
    int src;
    int user_tag;
    std::function<void(std::vector<double>)> k;
  };

  void deliver_user(int src, int user_tag, std::vector<double> payload);
  void root_collect(double value);
  void finish_reduction(double total);

  int rank_;
  int world_size_;
  Main main_;
  std::size_t footprint_ = 16 * 1024;

  std::deque<PendingRecv> pending_recvs_;
  /// Unexpected messages per (src, user_tag), FIFO.
  std::map<std::pair<int, int>, std::deque<std::vector<double>>> unexpected_;

  /// Compute continuations keyed by a local id carried in the message.
  std::map<int, std::function<void()>> compute_conts_;
  int next_compute_id_ = 0;

  /// At most one outstanding collective per rank (MPI ordering).
  std::function<void(double)> reduce_cont_;
  std::function<void()> sync_cont_;

  // Root-side (rank 0) reduction bookkeeping for the current epoch.
  int root_arrivals_ = 0;
  double root_sum_ = 0.0;
};

/// Adds `ranks` Rank chares (ids 0..ranks-1) running `main` to `job`.
/// Over-decompose: pass several ranks per PE so migration has granularity.
void populate_ranks(RuntimeJob& job, int ranks, Rank::Main main);

}  // namespace cloudlb::ampi
