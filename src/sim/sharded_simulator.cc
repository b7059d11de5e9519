#include "sim/sharded_simulator.h"

#include <algorithm>

#include "util/check.h"
#include "util/shard_annotations.h"
#include "util/thread_pool.h"

namespace cloudlb {

ShardedSimulator::ShardedSimulator(const Config& config) : config_{config} {
  CLB_CHECK_MSG(config.shards >= 1,
                "shard count must be >= 1, got " << config.shards);
  CLB_CHECK_MSG(config.lookahead > SimTime::zero(),
                "lookahead window must be positive, got "
                    << config.lookahead.to_string());
  states_.reserve(static_cast<std::size_t>(config.shards));
  for (int s = 0; s < config.shards; ++s)
    states_.push_back(std::make_unique<ShardState>());
  if (config.parallel) {
    const int cap = config.workers > 0 ? config.workers : hardware_jobs();
    team_ = std::make_unique<WorkerTeam>(
        std::max(1, std::min(cap, config.shards)));
  }
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::check_shard_access(int shard, const char* what) const {
  CLB_CHECK_MSG(shard >= 0 && shard < shards(),
                what << " shard out of range: " << shard);
  if (!in_window_) return;  // setup / between-window access is unrestricted
  CLB_CHECK_MSG(
      states_[static_cast<std::size_t>(shard)]->owner.load(
          std::memory_order_relaxed) == std::this_thread::get_id(),
      "shared-nothing contract violated: " << what << " shard " << shard
          << " from a worker that does not own it this window (cross-shard "
             "interaction must go through post())");
}

void ShardedSimulator::post(int src, int dst, SimTime latency, Callback cb) {
  check_shard_access(src, "post from");
  CLB_CHECK_MSG(dst >= 0 && dst < shards(),
                "post to shard out of range: " << dst);
  CLB_CHECK(!latency.is_negative());
  CLB_CHECK(cb != nullptr);
  ShardState& st = *states_[static_cast<std::size_t>(src)];
  if (src == dst) {
    // Shard-local delivery needs no window: the shard owns its own order.
    st.engine.schedule_after(latency, std::move(cb));
    return;
  }
  CLB_CHECK_MSG(
      latency >= config_.lookahead,
      "cross-shard post with latency " << latency.to_string()
          << " below the lookahead window " << config_.lookahead.to_string()
          << ": the conservative-window safety condition would not hold");
  st.outbox.push_back(ShardEnvelope{st.engine.now() + latency,
                                    st.engine.now(), st.engine.current_rank(),
                                    st.chan_seq++, src, dst, std::move(cb)});
}

void ShardedSimulator::reserve(std::size_t events_per_shard,
                               std::size_t slots_per_shard) {
  for (auto& st : states_)
    st->engine.reserve(events_per_shard, slots_per_shard);
}

std::optional<SimTime> ShardedSimulator::earliest_pending() {
  std::optional<SimTime> earliest;
  for (auto& st : states_) {
    const std::optional<SimTime> next = st->engine.next_live_time();
    if (next && (!earliest || *next < *earliest)) earliest = next;
  }
  return earliest;
}

void ShardedSimulator::flush_mailboxes() {
  merge_scratch_.clear();
  for (auto& st : states_) {
    for (ShardEnvelope& e : st->outbox)
      merge_scratch_.push_back(std::move(e));
    st->outbox.clear();
  }
  if (merge_scratch_.empty()) return;
  // The deterministic merge: (deliver time, src shard, src seq) is a
  // total order, so the destination engines assign their local sequence
  // numbers to injected envelopes identically on every run, for every
  // worker count and execution mode.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            shard_envelope_before);
  for (ShardEnvelope& e : merge_scratch_) {
    CLB_CHECK_MSG(e.deliver >= now_,
                  "cross-shard envelope due " << e.deliver.to_string()
                      << " is behind the barrier " << now_.to_string());
    states_[static_cast<std::size_t>(e.dst)]->engine.schedule_at_ranked(
        e.deliver, e.sent, e.rank, std::move(e.cb));
  }
  merge_scratch_.clear();
}

SimTime ShardedSimulator::window_end_for(SimTime t) const {
  CLB_CHECK(!t.is_negative());
  const std::int64_t w = config_.lookahead.ns();
  return SimTime::nanos((t.ns() / w + 1) * w);
}

void ShardedSimulator::run_window(SimTime end) {
  ++windows_run_;
  in_window_ = true;
  const auto run_shard = [this, end](int s) {
    ShardState& st = *states_[static_cast<std::size_t>(s)];
    st.owner.store(std::this_thread::get_id(), std::memory_order_relaxed);
    st.engine.run_before(end);
  };
  try {
    if (team_ != nullptr) {
      const int n = shards();
      const int w = team_->workers();
      team_->run_round([&run_shard, n, w](int worker) {
        for (int s = worker; s < n; s += w) run_shard(s);
      });
    } else {
      for (int s = 0; s < shards(); ++s) run_shard(s);
    }
  } catch (...) {
    in_window_ = false;
    throw;
  }
  in_window_ = false;
}

void ShardedSimulator::emit_trace() {
  if (!trace_) return;
  trace_scratch_.clear();
  for (int s = 0; s < shards(); ++s) {
    ShardState& st = *states_[static_cast<std::size_t>(s)];
    for (const auto& [time, seq] : st.trace)
      trace_scratch_.push_back(TraceRecord{time, s, seq});
    st.trace.clear();
  }
  // Same key as the mailbox merge: within a window the per-shard traces
  // interleave by (time, shard, seq), which both modes reproduce exactly.
  std::sort(trace_scratch_.begin(), trace_scratch_.end(),
            [](const TraceRecord& a, const TraceRecord& b) {
              if (a.time != b.time) return a.time < b.time;
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.seq < b.seq;
            });
  for (const TraceRecord& r : trace_scratch_)
    trace_(r.time, static_cast<int>(r.shard), r.seq);
}

std::optional<SimTime> ShardedSimulator::next_event_time() {
  flush_mailboxes();
  return earliest_pending();
}

SimTime ShardedSimulator::run_one_window(std::optional<SimTime> cap) {
  flush_mailboxes();
  const std::optional<SimTime> next = earliest_pending();
  CLB_CHECK_MSG(next.has_value(), "run_one_window with no pending event");
  SimTime end = window_end_for(*next);
  if (cap && *cap < end) end = *cap;
  // A clipped window is still conservative (a subset of a legal window);
  // clipping at or before the earliest event would make no progress, and
  // means the driver should have run its external action instead.
  CLB_CHECK_MSG(*next < end, "run_one_window makes no progress: next event "
                                 << next->to_string() << " not before "
                                 << end.to_string());
  run_window(end);
  now_ = end;
  emit_trace();
  return end;
}

std::optional<SimTime> ShardedSimulator::step_global() {
  CLB_CHECK_MSG(!in_window_, "step_global from inside a window");
  flush_mailboxes();
  // The head with the least (time, stamp, rank) goes first — the order a
  // single engine holding every event would use. Only the engine-local
  // sequence number is incomparable; a full tie falls to the lower shard.
  int best = -1;
  EngineCore::EventKey best_key;
  for (int s = 0; s < shards(); ++s) {
    const std::optional<EngineCore::EventKey> next =
        states_[static_cast<std::size_t>(s)]->engine.next_live_key();
    if (next && (best < 0 || *next < best_key)) {
      best = s;
      best_key = *next;
    }
  }
  if (best < 0) return std::nullopt;
  const SimTime best_time = best_key.time;
  ShardState& st = *states_[static_cast<std::size_t>(best)];
  // Advance the barrier clock *before* executing: a global-phase callback
  // reads now() as "the current global instant", and that is this event's
  // timestamp, not the previous one's.
  if (best_time > now_) now_ = best_time;
  // Work the event schedules on other engines inherits its rank, as it
  // would on a single engine.
  for (auto& other : states_)
    if (other.get() != &st) other->engine.set_rank_source(&st.engine);
  CLB_CHECK(st.engine.step());
  for (auto& other : states_) other->engine.set_rank_source(nullptr);
  ++global_steps_;
  if (trace_) {
    // One event stepped at a time, always the global minimum, so per-event
    // emission is already in the canonical (time, shard, seq) order the
    // window barrier would have sorted into.
    for (const auto& [time, seq] : st.trace)
      trace_(time, best, seq);
    st.trace.clear();
  }
  return best_time;
}

void ShardedSimulator::rewind_clocks(SimTime t) {
  CLB_CHECK_MSG(t <= now_, "rewind_clocks forward: t=" << t.to_string()
                               << " barrier=" << now_.to_string());
  for (auto& st : states_) st->engine.rewind_clock(t);
  now_ = t;
}

void ShardedSimulator::set_trace_hook(TraceHook hook) {
  trace_ = std::move(hook);
  for (auto& st : states_) {
    if (trace_) {
      ShardState* state = st.get();
      st->engine.set_trace_hook([state](SimTime time, std::uint64_t seq) {
        state->trace.emplace_back(time, seq);
      });
    } else {
      st->engine.set_trace_hook(EngineCore::TraceHook{});
      st->trace.clear();
    }
  }
}

EngineCore& ShardedSimulator::shard_engine(int shard) {
  check_shard_access(shard, "shard_engine for");
  return states_[static_cast<std::size_t>(shard)]->engine;
}

std::uint64_t ShardedSimulator::executed() const {
  std::uint64_t total = 0;
  for (const auto& st : states_) total += st->engine.executed();
  return total;
}

void ShardedSimulator::validate_integrity() const {
  for (const auto& st : states_) st->engine.validate_integrity();
}

}  // namespace cloudlb
