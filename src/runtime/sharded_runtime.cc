#include "runtime/sharded_runtime.h"

#include <algorithm>
#include <utility>

#include "runtime/job.h"
#include "util/check.h"
#include "util/log.h"
#include "util/shard_annotations.h"
#include "util/validate.h"

namespace cloudlb {

namespace {

ShardedSimulator::Config sim_config(const MachineConfig& mc,
                                    const ShardedRuntimeHost::Config& config) {
  CLB_CHECK_MSG(config.shards >= 1,
                "sharded runtime needs at least one shard, got "
                    << config.shards);
  CLB_CHECK(config.window > SimTime::zero());
  ShardedSimulator::Config sc;
  sc.shards = std::min(config.shards, mc.nodes);
  sc.lookahead = config.window;
  sc.parallel = config.parallel;
  sc.workers = config.workers;
  return sc;
}

}  // namespace

ShardedRuntimeHost::ShardedRuntimeHost(MachineConfig machine_config,
                                       Config config)
    : sharded_{sim_config(machine_config, config)},
      machine_{machine_config, [this](int node) -> EngineCore& {
                 return engine_of_node(node);
               }} {}

ShardedRuntimeHost::~ShardedRuntimeHost() = default;

int ShardedRuntimeHost::shard_of_node(int node) const {
  const int nodes = machine_.num_nodes();
  CLB_CHECK(node >= 0 && node < nodes);
  // Contiguous near-equal blocks, keeping the rack/node locality a real
  // partition would keep: node n -> n·S/N.
  return static_cast<int>(static_cast<long long>(node) * shards() / nodes);
}

int ShardedRuntimeHost::shard_of_core(CoreId core) const {
  return shard_of_node(core / machine_.cores_per_node());
}

void ShardedRuntimeHost::post(int src_shard, int dst_shard, SimTime latency,
                              EngineCore::Callback&& cb) {
  sharded_.post(src_shard, dst_shard, latency, std::move(cb));
}

void ShardedRuntimeHost::schedule_action(SimTime t, std::function<void()> fn) {
  CLB_CHECK_MSG(!in_window_, "schedule_action from inside a window");
  CLB_CHECK_MSG(t >= global_now(),
                "timed action in the past: " << t.to_string() << " < "
                                             << global_now().to_string());
  actions_.push_back(TimedAction{t, action_seq_++, std::move(fn)});
}

void ShardedRuntimeHost::register_job(RuntimeJob* job) {
  CLB_CHECK(job != nullptr);
  CLB_CHECK_MSG(!driving_, "jobs must register before drive()");
  jobs_.push_back(job);
}

bool ShardedRuntimeHost::all_jobs_finished() const {
  for (const RuntimeJob* j : jobs_)
    if (!j->finished()) return false;
  return true;
}

bool ShardedRuntimeHost::any_job_needs_global() const {
  for (RuntimeJob* j : jobs_)
    if (j->needs_global_phase()) return true;
  return false;
}

int ShardedRuntimeHost::next_action() const {
  int best = -1;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    if (best < 0 || actions_[i].t < actions_[static_cast<std::size_t>(
                        best)].t ||
        (actions_[i].t == actions_[static_cast<std::size_t>(best)].t &&
         actions_[i].seq < actions_[static_cast<std::size_t>(best)].seq)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

void ShardedRuntimeHost::drive(std::uint64_t max_events) {
  CLB_CHECK_MSG(!driving_, "drive() reentered");
  CLB_CHECK_MSG(!jobs_.empty(), "drive() with no registered jobs");
  driving_ = true;

  while (!all_jobs_finished()) {
    const std::optional<SimTime> event_t = sharded_.next_event_time();
    const int act = next_action();

    // Actions run before same-time events: the legacy scenario schedules
    // the background start during setup, whose event sequence number
    // precedes every application event at the same instant.
    if (act >= 0 && (!event_t || actions_[static_cast<std::size_t>(act)].t <=
                                     *event_t)) {
      TimedAction action = std::move(actions_[static_cast<std::size_t>(act)]);
      actions_.erase(actions_.begin() + act);
      action_now_ = action.t;
      action.fn();
      continue;
    }

    CLB_CHECK_MSG(event_t.has_value(),
                  "sharded runtime stalled: unfinished jobs but no pending "
                  "events or actions");
    CLB_CHECK_MSG(sharded_.executed() < max_events,
                  "event-count ceiling (" << max_events
                                          << ") hit; runaway scenario?");

    if (any_job_needs_global()) {
      // Serialized global phase: one event at a time in canonical global
      // order, timestamps exact.
      const std::optional<SimTime> t = sharded_.step_global();
      CLB_CHECK(t.has_value());
      continue;
    }

    // Compute phase: one conservative window, clipped so a due action
    // never lands mid-window.
    const std::optional<SimTime> cap =
        act >= 0 ? std::optional<SimTime>{
                       actions_[static_cast<std::size_t>(act)].t}
                 : std::nullopt;
    in_window_ = true;
    try {
      sharded_.run_one_window(cap);
    } catch (...) {
      in_window_ = false;
      throw;
    }
    in_window_ = false;

    // Barrier bookkeeping: in-window cascade completions recover, in job
    // registration order.
    for (RuntimeJob* j : jobs_) j->merge_window_state();
  }

  for (RuntimeJob* j : jobs_) j->finalize_shard_state();
  if (validation_enabled()) sharded_.validate_integrity();
  driving_ = false;
}

void ShardedRuntimeHost::recover_to(SimTime t) {
  CLB_CHECK_MSG(!in_window_, "recover_to from inside a window");
  if (t >= sharded_.now()) return;  // already behind the barrier clock
  // rewind_clocks makes each engine prove nothing ran after t; the
  // failure message below names the actual conflict (see
  // EngineCore::rewind_clock).
  sharded_.rewind_clocks(t);
  ++rewinds_;
}

void ShardedRuntimeHost::note_job_finished(RuntimeJob& job) {
  CLB_INFO(job.name() << " finished at " << job.finish_time().to_string()
                      << " (sharded: " << sharded_.windows_run()
                      << " windows, " << sharded_.global_steps()
                      << " global steps, " << rewinds_ << " rewinds)");
  if (on_job_finished_) on_job_finished_(job);
}

}  // namespace cloudlb
