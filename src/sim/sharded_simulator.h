#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "sim/engine_core.h"
#include "util/shard_annotations.h"
#include "util/sim_time.h"

namespace cloudlb {

class WorkerTeam;

/// One buffered cross-shard delivery — the unit of the channel merge.
/// `seq` is a per-source channel counter, so (deliver, src, seq) is a
/// total order and the merge at a window barrier is deterministic: every
/// run, for every worker count, injects the same envelopes in the same
/// order.
struct ShardEnvelope {
  SimTime deliver;
  /// Source clock at post() time — injected as the event's send stamp so
  /// the destination's same-time ordering is by send instant, exactly as
  /// if the sender had scheduled directly on a single shared engine.
  SimTime sent;
  /// Sender event's rank (EngineCore::current_rank) — injected with the
  /// stamp so burst continuations keep their chare-index ordering across
  /// the channel when time and stamp both tie.
  std::uint64_t rank = 0;
  std::uint64_t seq = 0;
  std::int32_t src = 0;
  std::int32_t dst = 0;
  EngineCore::Callback cb;
};

/// Canonical channel-merge order: (deliver time, source, source seq).
[[nodiscard]] inline bool shard_envelope_before(const ShardEnvelope& a,
                                                const ShardEnvelope& b) {
  if (a.deliver != b.deliver) return a.deliver < b.deliver;
  if (a.src != b.src) return a.src < b.src;
  return a.seq < b.seq;
}

/// N shared-nothing event engines advanced in conservative lock-step time
/// windows (docs/sharded-engine.md).
///
/// Each shard owns a private EngineCore — its own slot arena, 4-ary heap
/// and clock — and executes one window [W, W+L) at a time, where the
/// lookahead L is a lower bound on every cross-shard delivery latency
/// (min_internode_delay for the machine model's network). Because no
/// message sent inside a window can arrive before the window ends, shards
/// never interact mid-window: cross-shard sends buffer into per-source
/// ordered mailboxes and are exchanged at the window barrier, merged by
/// (time, src-shard, seq) and injected into the destination engines in
/// that canonical order. Within a window shards run concurrently on a
/// persistent WorkerTeam (Config::parallel) or sequentially in shard
/// order — the two modes produce identical execution traces, which is
/// what makes the parallel mode testable against a serial oracle.
///
/// Contract: during a window, a callback may only touch its own shard
/// (its shard_engine, or post from itself); the shared-nothing rule is
/// enforced with CLB_CHECK against the owning worker thread. Between
/// windows (setup, or from the driving thread) any shard is accessible.
///
/// ShardedRuntimeHost is the one driver: it alternates run_one_window
/// with step_global and does its barrier bookkeeping in between, so the
/// engine has no window loop of its own.
class ShardedSimulator {
 public:
  using Callback = EngineCore::Callback;

  /// Observes every executed event as (time, shard, per-shard sequence
  /// number) in canonical merge order — the deterministic interleaving of
  /// the per-shard traces. With one shard this is exactly the legacy
  /// engine's (time, seq) trace.
  using TraceHook = std::function<void(SimTime, int, std::uint64_t)>;

  struct Config {
    int shards = 1;
    /// Window width = cross-shard lookahead. Must be positive and must
    /// lower-bound every cross-shard post latency (enforced per post).
    SimTime lookahead = SimTime::micros(60);
    /// Execute windows on a persistent worker team instead of the calling
    /// thread. Trace-identical to serial execution by construction. Inert
    /// with one shard, which always runs on the calling thread.
    bool parallel = false;
    /// Worker count for parallel mode; <= 0 picks min(shards,
    /// hardware_jobs()). Shards are dealt round-robin to workers.
    int workers = 0;
  };

  explicit ShardedSimulator(const Config& config);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  [[nodiscard]] int shards() const { return static_cast<int>(states_.size()); }

  /// Global window clock: the last barrier passed. Shard clocks advance
  /// inside [now(), now()+lookahead) during a window and all meet at the
  /// next barrier.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Cross-shard send: delivers `cb` on shard `dst` at src's now() +
  /// latency. Cross-shard posts require latency >= lookahead() — the
  /// conservative-window safety condition — and buffer into the src
  /// mailbox until the next barrier; a post to the own shard (src == dst)
  /// schedules directly with no latency floor, like same-node traffic.
  CLB_SHARD_CONFINED void post(int src, int dst, SimTime latency,
                               Callback&& cb);

  /// Presize hints forwarded to every shard (EngineCore::reserve).
  CLB_BARRIER_PHASE void reserve(std::size_t events_per_shard,
                                 std::size_t slots_per_shard);

  // --- Externally driven execution. The driver interleaves conservative
  // windows with serialized global phases: run_one_window advances one
  // window at a time so the driver can do barrier bookkeeping between
  // windows, and step_global executes events one at a time in canonical
  // global (time, shard, seq) order — shards stay mutually consistent
  // because only the driving thread runs, outside any window, where the
  // shared-nothing restriction is deliberately lifted.

  /// Flushes pending cross-shard mail, then reports the earliest live
  /// event across all shards (nullopt when fully drained).
  [[nodiscard]] std::optional<SimTime> next_event_time();

  /// Runs exactly one exclusive window [now(), end), where end is the
  /// canonical window boundary after the earliest pending event, clipped
  /// to `cap` if that comes first. Advances the barrier clock to end,
  /// emits the merged trace, and returns end. Requires a pending event
  /// strictly before end (call next_event_time() first; if an external
  /// action is due at or before the earliest event, run it instead).
  SimTime run_one_window(std::optional<SimTime> cap);

  /// Executes the single globally earliest event — min over shards of
  /// the head's (time, stamp, rank), then shard — on the driving thread,
  /// with every other engine inheriting its rank (EngineCore::
  /// set_rank_source), emits its trace
  /// record immediately (global order makes per-event emission already
  /// canonical), and returns its time; nullopt when drained. This is the
  /// serialized mode the runtime's global phases (LB barrier cascades,
  /// reductions, finish detection) run under: it is exactly a merged
  /// single-engine execution, so cross-shard state reads are safe and
  /// every timestamp is exact.
  CLB_BARRIER_PHASE std::optional<SimTime> step_global();

  /// Barrier recovery (see EngineCore::rewind_clock): rewinds every
  /// shard clock and the barrier clock to `t`, after a window that turned
  /// out to have executed nothing past `t`. Each engine proves the
  /// rewind's legality itself.
  CLB_BARRIER_PHASE void rewind_clocks(SimTime t);

  /// Events executed through step_global (monitoring).
  [[nodiscard]] std::uint64_t global_steps() const { return global_steps_; }

  // The per-event append the installed hook performs runs inside shard
  // execution, hence the shard-confined context on the installer.
  CLB_SHARD_CONFINED void set_trace_hook(TraceHook hook);

  /// One shard's engine: where events on that shard are scheduled and
  /// cancelled. Mid-window only the shard's owning worker may ask for it
  /// (CLB_CHECKed); cross-shard sends go through post().
  [[nodiscard]] CLB_SHARD_CONFINED EngineCore& shard_engine(int shard);

  /// Total events executed across all shards.
  [[nodiscard]] CLB_BARRIER_PHASE std::uint64_t executed() const;
  /// Windows executed so far (monitoring / window-width sensitivity).
  [[nodiscard]] std::uint64_t windows_run() const { return windows_run_; }

  /// Deep audit of every shard engine (EngineCore::validate_integrity).
  CLB_BARRIER_PHASE void validate_integrity() const;

 private:
  struct CLB_SHARD_CONFINED ShardState {
    EngineCore engine;
    std::vector<ShardEnvelope> outbox;  ///< written only by the owner
    std::uint64_t chan_seq = 0;         ///< per-source channel counter
    /// (time, seq) of events executed this window, in execution order;
    /// drained into the merged trace at the barrier.
    std::vector<std::pair<SimTime, std::uint64_t>> trace;
    /// Worker currently (or last) executing this shard; relaxed atomics
    /// because a *misusing* cross-shard caller reads it concurrently with
    /// the owner's store — the read must be loud, not undefined.
    std::atomic<std::thread::id> owner;
  };

  /// Range-checks `shard` and, inside a window, enforces that the calling
  /// thread owns it.
  // The ownership guard itself runs in the (possibly misusing) caller's
  // shard context.
  CLB_SHARD_CONFINED void check_shard_access(int shard,
                                             const char* what) const;
  [[nodiscard]] CLB_BARRIER_PHASE std::optional<SimTime> earliest_pending();
  CLB_BARRIER_PHASE void flush_mailboxes();
  // One closure per window is handed to WorkerTeam::run_round by
  // FunctionRef (borrowed, never type-erased into an owning wrapper), so
  // driving a round allocates nothing (SimAllocTest pins it).
  CLB_SHARD_CONFINED void run_window(SimTime end);
  CLB_BARRIER_PHASE void emit_trace();
  [[nodiscard]] SimTime window_end_for(SimTime t) const;

  Config config_;
  std::vector<std::unique_ptr<ShardState>> states_;
  std::unique_ptr<WorkerTeam> team_;
  SimTime now_ = SimTime::zero();
  bool in_window_ = false;
  TraceHook trace_;
  std::vector<ShardEnvelope> merge_scratch_;
  struct TraceRecord {
    SimTime time;
    std::int32_t shard;
    std::uint64_t seq;
  };
  std::vector<TraceRecord> trace_scratch_;
  std::uint64_t windows_run_ = 0;
  std::uint64_t global_steps_ = 0;
};

}  // namespace cloudlb
