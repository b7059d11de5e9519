#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "util/check.h"
#include "util/shard_annotations.h"
#include "util/sim_time.h"
#include "util/small_function.h"
#include "util/validate.h"

namespace cloudlb {

/// Handle to a scheduled event, usable for cancellation. Default-constructed
/// handles are inert. A handle names one *occupancy* of a callback slot —
/// {slot index, generation} — so a handle kept across its event's firing
/// (or cancellation) goes stale instead of aliasing whatever event reuses
/// the slot: cancelling it is detected and returns false.
class EventHandle {
 public:
  EventHandle() = default;
  [[nodiscard]] bool valid() const { return gen_ != 0; }

 private:
  friend class EngineCore;
  EventHandle(std::uint32_t slot, std::uint32_t gen)
      : slot_{slot}, gen_{gen} {}
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;  ///< 0 = inert; live generations start at 1
};

/// The event-engine mechanism: a slot-arena of callbacks addressed by a
/// 4-ary min-heap of (time, stamp, rank, seq) entries plus a sorted
/// current-instant lane beside it, with lazy cancellation and stale-entry
/// compaction. One EngineCore is one shard's worth of pending
/// events — `Simulator` wraps exactly one as the single-threaded engine,
/// and `ShardedSimulator` owns N of them advanced in conservative time
/// windows (docs/sharded-engine.md). The core itself is single-threaded:
/// all cross-thread coordination lives in the owner.
///
/// Engine layout (see docs/event-engine.md): callbacks live in a free-list
/// slot arena addressed directly by the heap entries, so the steady-state
/// schedule→fire cycle does no hashing and — for callbacks whose captures
/// fit the Callback inline buffer — no heap allocation at all. The pending
/// queue is a 4-ary min-heap: half the depth of a binary heap, and the
/// four children of a node share a cache line, which is worth ~25% on the
/// schedule→fire cycle at evaluation-grid queue sizes. Events scheduled at
/// now() — a third of a stencil run's, mostly zero-delay completion
/// relays — usually skip the heap: they append to the lane, and every pop
/// takes the lesser of the lane head and the heap top by the full key, so
/// the firing order is the one a single heap would give.
class EngineCore {
 public:
  /// Bytes of capture state a callback may carry and still be stored
  /// inline (allocation-free). Sized for the fattest runtime closure:
  /// message delivery captures {this, Message} = 56 bytes (Message is 48:
  /// three ints + payload vector + wire size).
  static constexpr std::size_t kInlineCallbackBytes = 64;

  using Callback = SmallFunction<void(), kInlineCallbackBytes>;

  /// Current virtual time. Starts at zero.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Presize hints: reserves heap capacity for `events` concurrently
  /// pending entries and arena capacity for `slots` callback cells, so
  /// the growth reallocations of a large scenario's setup burst (100k+
  /// PEs schedule one event per entity up front) leave the warm path.
  /// The lane gets an eighth of `events`: it holds one instant's
  /// zero-delay work, a small share of what is pending (at most 512 of
  /// the 9216 a 32-core Fig. 2 run presizes). Never shrinks; purely a
  /// capacity hint, invisible to the trace.
  void reserve(std::size_t events, std::size_t slots) {
    queue_.reserve(events);
    lane_.reserve(events / 8);
    slots_.reserve(slots);
  }

  /// Schedules `cb` at absolute time `t` (must be >= now()). The event is
  /// stamped with the caller's clock (now()): same-time events fire in
  /// (stamp, insertion) order. On a lone engine the stamp is redundant —
  /// insertion order already sorts by the non-decreasing clock — so this
  /// orders identically to a plain (time, seq) heap. The stamp exists for
  /// the sharded runtime, where events reach one engine from several
  /// clocks: see schedule_at_stamped.
  ///
  /// Every schedule call takes the callback by rvalue reference and moves
  /// it exactly once, into its arena slot: a closure built at the call
  /// site is not relocated again on its way in.
  EventHandle schedule_at(SimTime t, Callback&& cb) {
    return schedule_at_ranked(t, now_, inherited_rank(), std::move(cb));
  }

  /// Schedules `cb` at `t` carrying an explicit send stamp — the logical
  /// instant the *scheduling* happened, on whatever clock the caller was
  /// executing under. Same-time events fire in ascending stamp order
  /// (ties by insertion), which is exactly the single-engine rule where
  /// an event inserted earlier-in-virtual-time fires first. The sharded
  /// runtime uses this to inject cross-engine work (mailbox envelopes,
  /// global-phase scheduling) so that destination queues interleave
  /// same-time events by send order, bit-identical to the legacy engine,
  /// instead of by arrival route. `stamp` may be behind this engine's
  /// clock (the sender's window lags the barrier) but never ahead of `t`.
  /// The event inherits the executing event's rank (see
  /// schedule_at_ranked and inherited_rank).
  EventHandle schedule_at_stamped(SimTime t, SimTime stamp, Callback&& cb) {
    return schedule_at_ranked(t, stamp, inherited_rank(), std::move(cb));
  }

  /// Schedules `cb` at `t` with an explicit (stamp, rank) ordering key.
  /// `rank` breaks ties after the stamp and before insertion order. It
  /// exists for synchronized fan-out bursts in the runtime: when one
  /// logical broadcast (an LB resume, a reduction result) reaches N
  /// chares "at the same instant", one engine would execute the per-chare
  /// continuations in insertion order while per-shard engines drain shard
  /// by shard. Ranking those continuations by chare index, and letting
  /// every event they transitively schedule inherit the rank
  /// (current_rank()), gives one interleave for events whose time AND
  /// stamp both tie, on every shard count. Code that assigns no rank
  /// carries 0, where ordering degenerates to (time, stamp, seq).
  EventHandle schedule_at_ranked(SimTime t, SimTime stamp, std::uint64_t rank,
                                 Callback&& cb) {
    CLB_CHECK_MSG(t >= now_, "event scheduled in the past: t="
                                 << t.to_string()
                                 << " now=" << now_.to_string());
    CLB_CHECK_MSG(stamp <= t, "send stamp after delivery: stamp="
                                  << stamp.to_string()
                                  << " t=" << t.to_string());
    CLB_CHECK(cb != nullptr);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    const QueueEntry e{t, stamp, rank, next_seq_++, slot, s.gen};
    if (t != now_ || !lane_insert(e)) push_entry(e);
    ++live_;
    return EventHandle{slot, s.gen};
  }

  /// Rank of the currently executing event — zero outside a callback and
  /// outside ranked chains. Everything scheduled from inside a callback
  /// inherits it, so a ranked burst continuation propagates its rank down
  /// its whole causal chain.
  [[nodiscard]] std::uint64_t current_rank() const { return current_rank_; }

  /// Rank that schedule_at and schedule_at_stamped attach: the executing
  /// event's. While a serialized global step runs another engine's event
  /// (set_rank_source), that is the other engine's current rank, so work
  /// scheduled across engines inherits exactly what a single engine would
  /// have given it.
  [[nodiscard]] std::uint64_t inherited_rank() const {
    return rank_source_ != nullptr ? rank_source_->current_rank_
                                   : current_rank_;
  }

  /// Points inherited_rank at the engine whose event is executing (null
  /// restores this engine's own). Set by ShardedSimulator::step_global
  /// around each step; a lone engine never has one.
  void set_rank_source(const EngineCore* source) { rank_source_ = source; }

  /// Overrides the inherited rank mid-callback. Used by fan-out loops
  /// that deliver to several chares from ONE event (the per-shard half of
  /// a reduction broadcast): each chare's deliveries must rank as if the
  /// chare had its own continuation event. step() resets the rank after
  /// the callback returns.
  void set_current_rank(std::uint64_t rank) { current_rank_ = rank; }

  /// Schedules `cb` at now() + delay (delay must be >= 0).
  EventHandle schedule_after(SimTime delay, Callback&& cb) {
    CLB_CHECK(!delay.is_negative());
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancels a pending event. Cancelling an already-fired, already-cancelled
  /// or inert handle is a no-op; returns whether something was cancelled.
  /// Stale handles (their slot was recycled by a later event) are detected
  /// by the generation check and refused.
  [[nodiscard]] bool cancel(EventHandle h) {
    if (!h.valid()) return false;
    if (h.slot_ >= slots_.size() || slots_[h.slot_].gen != h.gen_)
      return false;  // already fired or cancelled; the slot may be reused
    release_slot(h.slot_);
    // The queue entry is normally skipped lazily when popped, but repeated
    // schedule/cancel cycles (re-armed periodic timers) would then grow the
    // queue without bound: compact once stale entries outnumber live ones.
    ++stale_;
    const std::size_t held = queue_size();
    if (held > kCompactionFloor && stale_ * 2 > held) compact_queue();
    return true;
  }

  /// Executes the next pending event. Returns false if none remain.
  [[nodiscard]] bool step() {
    const QueueEntry* head = live_head();
    if (head == nullptr) return false;
    fire_head(head);
    return true;
  }

  /// Runs until the event queue drains.
  void run();

  /// Runs all events with timestamp <= `t` (including events they schedule
  /// at times <= `t`), then sets the clock to `t`. Postcondition: no
  /// pending event is earlier than now().
  CLB_SHARD_CONFINED void run_until(SimTime t);

  /// Runs all events with timestamp strictly *before* `t`, then sets the
  /// clock to `t`. This is the conservative-window execution primitive
  /// (docs/sharded-engine.md): a shard owns [now(), t) exclusively, and an
  /// event at exactly `t` belongs to the next window, after the barrier at
  /// which cross-shard messages timestamped `t` are injected. `t` must be
  /// >= now().
  CLB_SHARD_CONFINED void run_before(SimTime t);

  /// Time at which the most recent event executed. Zero before any event
  /// has run. Unlike now(), this
  /// never moves on run_until / run_before clock advancement — it is the
  /// high-water mark of *work*, which is what makes rewind_clock able to
  /// prove a window tail was empty.
  [[nodiscard]] SimTime last_event_time() const { return last_event_time_; }

  /// Rewinds the clock to `t` without touching any state but now().
  ///
  /// This is the barrier-recovery primitive of the sharded runtime
  /// (docs/sharded-engine.md): when a window barrier discovers that a
  /// global cascade (an AtSync wave, a reduction, a job finish) completed
  /// entirely *inside* the window just run, the cascade's continuation
  /// must fire at the cascade instant t — but run_before already advanced
  /// the clock to the window end. Rewinding is legal exactly when nothing
  /// observable happened after t: no event executed past t (checked
  /// against last_event_time) and no pending event is due before t
  /// (guaranteed by the window postcondition, checked anyway). Machine
  /// state cannot disagree — every lazily-accruing model (core fluid
  /// shares, power) anchors at its last *event*, never at the bare clock.
  CLB_BARRIER_PHASE void rewind_clock(SimTime t) {
    CLB_CHECK_MSG(t <= now_, "rewind_clock forward: t=" << t.to_string()
                                                        << " now="
                                                        << now_.to_string());
    CLB_CHECK_MSG(last_event_time_ <= t,
                  "rewind_clock past executed work: t="
                      << t.to_string() << " last event at "
                      << last_event_time_.to_string());
    const auto next = next_live_time();
    CLB_CHECK_MSG(!next || *next >= t,
                  "rewind_clock below a pending event: t="
                      << t.to_string() << " pending at "
                      << next->to_string());
    now_ = t;
  }

  /// The heap key of an event minus its engine-local sequence number:
  /// the part of the order that is comparable across engines.
  struct EventKey {
    SimTime time;
    SimTime stamp;
    std::uint64_t rank = 0;
    bool operator<(const EventKey& o) const {
      if (time != o.time) return time < o.time;
      if (stamp != o.stamp) return stamp < o.stamp;
      return rank < o.rank;
    }
  };

  /// Key of the earliest live (non-cancelled) pending event, or nullopt
  /// when none remain. Sheds stale heads off the heap and the lane as a
  /// side effect (bookkeeping only; the trace is untouched).
  [[nodiscard]] std::optional<EventKey> next_live_key() {
    const QueueEntry* head = live_head();
    if (head == nullptr) return std::nullopt;
    return EventKey{head->time, head->stamp, head->rank};
  }

  /// Timestamp of the earliest live pending event (see next_live_key).
  [[nodiscard]] std::optional<SimTime> next_live_time() {
    const std::optional<EventKey> key = next_live_key();
    if (!key) return std::nullopt;
    return key->time;
  }

  /// Number of events scheduled but not yet fired or cancelled.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Queue entries currently held by the heap and the lane together,
  /// including stale (cancelled) ones waiting to be skipped or compacted
  /// away. Bounded at < 2·pending() + a small floor even under adversarial
  /// schedule/cancel churn.
  [[nodiscard]] std::size_t queue_size() const {
    return queue_.size() + (lane_.size() - lane_head_);
  }

  /// Callback slots allocated (monitoring; slots are recycled, so this
  /// tracks the high-water mark of concurrently pending events).
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

  /// Total events executed so far (monitoring / benchmarks).
  [[nodiscard]] std::uint64_t executed() const { return executed_; }

  /// Observes every executed event as (time, sequence number), *before*
  /// its callback runs. Used by determinism tests to fingerprint the
  /// execution trace; null (the default) costs one branch per event.
  using TraceHook = std::function<void(SimTime, std::uint64_t)>;
  void set_trace_hook(TraceHook hook) { trace_ = std::move(hook); }

  /// Deep structural audit of the engine (validation_enabled() gates the
  /// automatic call sites; calling it directly is always allowed): 4-ary
  /// heap property over the pending queue, the lane's strict key order
  /// and single instant, slot-arena free-list shape (in-range, acyclic,
  /// callbacks cleared), generation consistency between the entries of
  /// both containers and the slots, and the live/stale accounting.
  /// Throws CheckFailure on the first violated invariant.
  void validate_integrity() const;

 private:
  friend struct SimulatorTestAccess;  ///< corruption seams for validator tests

  struct QueueEntry {
    SimTime time;
    SimTime stamp;       ///< send instant; breaks same-time ties before rank
    std::uint64_t rank;  ///< burst-continuation rank; 0 outside ranked chains
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;
    bool operator>(const QueueEntry& o) const {
      if (time != o.time) return time > o.time;
      if (stamp != o.stamp) return stamp > o.stamp;
      if (rank != o.rank) return rank > o.rank;
      return seq > o.seq;
    }
  };

  /// One arena cell. `gen` counts occupancies: it is bumped when the
  /// occupant leaves (fires or is cancelled), so queue entries and handles
  /// carrying an old generation are recognizably stale. A slot is on the
  /// free list iff its generation matches no outstanding entry.
  struct Slot {
    Callback cb;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNoSlot;
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  // Below this size, compaction is not worth the pass: lazily skipping a
  // handful of stale heads is cheaper than rebuilding the heap.
  static constexpr std::size_t kCompactionFloor = 64;

  // Most lane entries an insert may shift to keep the lane sorted. An
  // entry that belongs further forward goes to the heap instead, so a
  // burst arriving in reverse key order costs heap pushes, not a
  // quadratic run of shifts.
  static constexpr std::size_t kLaneMaxShift = 8;

  // --- The current-instant lane: lane_[lane_head_, end) holds entries
  // that all share one instant, in strictly ascending key order. Only
  // events scheduled at now() enter it, and only while it is empty or
  // already at that instant; the consumed prefix [0, lane_head_) is
  // reclaimed when the lane drains or before it would reallocate.

  /// Inserts `e` (due at now()) into the lane; false when it must go to
  /// the heap: the lane holds another instant, or `e` belongs more than
  /// kLaneMaxShift entries from the back.
  bool lane_insert(const QueueEntry& e) {
    std::size_t pos = lane_.size();
    if (pos != lane_head_ && lane_.back().time != e.time) return false;
    for (std::size_t shifts = 0; pos != lane_head_ && lane_[pos - 1] > e;
         --pos) {
      if (++shifts > kLaneMaxShift) return false;
    }
    if (lane_.size() == lane_.capacity() && lane_head_ > 0) {
      // About to grow: drop the consumed prefix instead, so a long chain
      // of zero-delay events at one instant runs in bounded memory.
      lane_.erase(lane_.begin(),
                  lane_.begin() + static_cast<std::ptrdiff_t>(lane_head_));
      pos -= lane_head_;
      lane_head_ = 0;
    }
    lane_.insert(lane_.begin() + static_cast<std::ptrdiff_t>(pos), e);
    return true;
  }

  void pop_lane() {
    if (++lane_head_ == lane_.size()) {
      lane_.clear();  // drained: restart at the front, keeping capacity
      lane_head_ = 0;
    }
  }

  /// The lesser live head of the lane and the heap by the full key, or
  /// null when nothing is pending. Stale heads met on the way are shed
  /// and retired from the stale ledger.
  const QueueEntry* live_head() {
    for (;;) {
      const QueueEntry* head;
      if (lane_head_ != lane_.size() &&
          (queue_.empty() || queue_.front() > lane_[lane_head_])) {
        head = &lane_[lane_head_];
      } else if (!queue_.empty()) {
        head = &queue_.front();
      } else {
        return nullptr;
      }
      if (slots_[head->slot].gen == head->gen) return head;
      pop_head(head);
      retire_stale();
    }
  }

  /// Removes `head`, the front of the heap or of the lane.
  void pop_head(const QueueEntry* head) {
    if (head == queue_.data()) {
      pop_entry();
    } else {
      pop_lane();
    }
  }

  /// Pops `head` (live_head's result) off its container and runs it.
  void fire_head(const QueueEntry* head) {
    const QueueEntry entry = *head;
    pop_head(head);
    // Move the callback out and release the slot *before* invoking: the
    // callback may itself schedule (possibly into this very slot, at a
    // fresh generation) or cancel events, and scheduling may grow the
    // slot vector, so the callable must not run from arena storage.
    Callback cb = std::move(slots_[entry.slot].cb);
    release_slot(entry.slot);
    // A live event behind the clock means the engine is broken; fail
    // loudly in every build type rather than fire it late.
    CLB_CHECK_MSG(entry.time >= now_,
                  "event due at " << entry.time.to_string()
                                  << " fired behind the clock ("
                                  << now_.to_string() << ")");
    now_ = entry.time;
    ++executed_;
    last_event_time_ = now_;
    if (validation_enabled()) {
      // The order contract: events fire in strictly increasing
      // (time, stamp, rank, seq) order — the determinism fingerprint
      // every golden digest depends on.
      const bool monotone =
          last_fired_time_ < entry.time ||
          (last_fired_time_ == entry.time &&
           (last_fired_stamp_ < entry.stamp ||
            (last_fired_stamp_ == entry.stamp &&
             (last_fired_rank_ < entry.rank ||
              (last_fired_rank_ == entry.rank &&
               last_fired_seq_ < entry.seq)))));
      CLB_CHECK_MSG(monotone,
                    "trace sequence not monotone: ("
                        << entry.time.to_string() << ", stamp "
                        << entry.stamp.to_string() << ", rank " << entry.rank
                        << ", seq " << entry.seq << ") fired after ("
                        << last_fired_time_.to_string() << ", stamp "
                        << last_fired_stamp_.to_string() << ", rank "
                        << last_fired_rank_ << ", seq " << last_fired_seq_
                        << ")");
      last_fired_time_ = entry.time;
      last_fired_stamp_ = entry.stamp;
      last_fired_rank_ = entry.rank;
      last_fired_seq_ = entry.seq;
    }
    if (trace_) trace_(entry.time, entry.seq);
    current_rank_ = entry.rank;
    cb();
    current_rank_ = 0;
  }

  // --- 4-ary min-heap over queue_ (manual layout so cancellation can
  // compact stale entries in place, which a std::priority_queue cannot).

  void push_entry(const QueueEntry& e) {
    queue_.push_back(e);
    std::size_t i = queue_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!(queue_[parent] > e)) break;
      queue_[i] = queue_[parent];
      i = parent;
    }
    queue_[i] = e;
  }

  void pop_entry() {
    queue_.front() = queue_.back();
    queue_.pop_back();
    if (queue_.size() > 1) sift_down(0);
  }

  /// Retires one shed stale entry from the stale ledger. Every stale
  /// entry was counted by exactly one cancel(), so finding the ledger at
  /// zero here means the accounting drifted — an engine bug. That used to
  /// be clamped away (`if (stale_ > 0)`), which let an undercount ride
  /// silently until compaction resynced it; now it is an integrity
  /// failure in every build type, same as validate_integrity() would
  /// report.
  void retire_stale() {
    CLB_CHECK_MSG(stale_ > 0,
                  "stale-entry ledger underflow: skipping a cancelled head "
                  "with stale_ == 0 (accounting drifted)");
    --stale_;
  }

  void sift_down(std::size_t i) {
    const std::size_t n = queue_.size();
    const QueueEntry item = queue_[i];
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < end; ++c)
        if (queue_[best] > queue_[c]) best = c;
      if (!(item > queue_[best])) break;
      queue_[i] = queue_[best];
      i = best;
    }
    queue_[i] = item;
  }

  void compact_queue();

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = slots_[slot].next_free;
      return slot;
    }
    const auto slot = static_cast<std::uint32_t>(slots_.size());
    CLB_CHECK_MSG(slot != kNoSlot, "event slot arena exhausted");
    slots_.emplace_back();
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    Slot& s = slots_[slot];
    s.cb = nullptr;
    ++s.gen;  // invalidates every outstanding handle/entry
    s.next_free = free_head_;
    free_head_ = slot;
    --live_;
  }

  SimTime now_ = SimTime::zero();
  SimTime last_event_time_ = SimTime::zero();
  std::uint64_t next_seq_ = 1;
  SimTime last_fired_time_ = SimTime::min_value();
  SimTime last_fired_stamp_ = SimTime::min_value();
  std::uint64_t last_fired_rank_ = 0;
  std::uint64_t last_fired_seq_ = 0;
  std::uint64_t current_rank_ = 0;  ///< rank of the executing event
  const EngineCore* rank_source_ = nullptr;  ///< see set_rank_source
  std::uint64_t executed_ = 0;
  std::vector<QueueEntry> queue_;
  std::vector<QueueEntry> lane_;  ///< the current-instant lane (above)
  std::size_t lane_head_ = 0;     ///< first unconsumed lane entry
  std::size_t stale_ = 0;  ///< cancelled entries still in queue_ or lane_
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::size_t live_ = 0;
  TraceHook trace_;
};

}  // namespace cloudlb
