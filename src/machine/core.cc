#include "machine/core.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace cloudlb {

namespace {
// Remaining CPU below this is treated as finished; guards against
// floating-point residue after advancing to a completion instant.
constexpr double kCpuEpsilonSec = 1e-12;
}  // namespace

Core::Core(EngineCore& sim, CoreId id, double speed)
    : sim_{sim}, id_{id}, speed_{speed} {
  CLB_CHECK(speed > 0.0);
}

ContextId Core::register_context(std::string name, double weight) {
  CLB_CHECK(weight > 0.0);
  const auto ctx = static_cast<ContextId>(contexts_.size());
  contexts_.push_back(ContextInfo{std::move(name), weight, 0.0});
  return ctx;
}

void Core::set_weight(ContextId ctx, double weight) {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  CLB_CHECK(weight > 0.0);
  advance_to_now();
  contexts_[static_cast<std::size_t>(ctx)].weight = weight;
  complete_and_reschedule();
}

const std::string& Core::context_name(ContextId ctx) const {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  return contexts_[static_cast<std::size_t>(ctx)].name;
}

void Core::demand(ContextId ctx, SimTime cpu_time,
                  EngineCore::Callback&& on_complete) {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  CLB_CHECK(!cpu_time.is_negative());
  CLB_CHECK(on_complete != nullptr);
  CLB_CHECK_MSG(find_active(ctx) == nullptr,
                "context " << context_name(ctx) << " already has a demand");
  advance_to_now();
  const auto pos = std::lower_bound(
      active_.begin(), active_.end(), ctx,
      [](const Request& r, ContextId c) { return r.ctx < c; });
  active_.emplace(pos, ctx, cpu_time.to_seconds(), std::move(on_complete));
  complete_and_reschedule();
}

bool Core::has_demand(ContextId ctx) const {
  return find_active(ctx) != nullptr;
}

const Core::Request* Core::find_active(ContextId ctx) const {
  for (const Request& r : active_)
    if (r.ctx == ctx) return &r;
  return nullptr;
}

double Core::total_active_weight() const {
  double w = 0.0;
  for (const Request& r : active_)
    w += contexts_[static_cast<std::size_t>(r.ctx)].weight;
  return w;
}

void Core::advance_to_now() {
  const SimTime now = sim_.now();
  const SimTime elapsed = now - last_update_;
  last_update_ = now;
  if (elapsed.is_zero() || active_.empty()) return;

  const double dt = elapsed.to_seconds();
  busy_sec_ += dt;
  const double total_w = total_active_weight();
  for (Request& req : active_) {
    auto& info = contexts_[static_cast<std::size_t>(req.ctx)];
    const double rate = speed_ * info.weight / total_w;
    const double used = std::min(req.remaining_cpu_sec, dt * rate);
    req.remaining_cpu_sec -= used;
    info.consumed_cpu_sec += used;
  }
}

void Core::complete_and_reschedule() {
  // Collect finished requests first so their callbacks (which may issue new
  // demands on this core) run against a consistent active set. The
  // survivors close up in place, keeping their ContextId order.
  std::size_t kept = 0;
  for (Request& req : active_) {
    if (req.remaining_cpu_sec <= kCpuEpsilonSec) {
      finished_.push_back(std::move(req.on_complete));
    } else {
      if (&req != &active_[kept]) active_[kept] = std::move(req);
      ++kept;
    }
  }
  active_.erase(active_.begin() + static_cast<std::ptrdiff_t>(kept),
                active_.end());

  if (completion_event_.valid()) {
    // The completion callback clears the handle before re-entering this
    // function, so a valid handle here always names a pending event; a
    // failed cancel would mean the handle went stale (engine bug).
    CLB_CHECK_MSG(sim_.cancel(completion_event_),
                  "core completion handle went stale");
    completion_event_ = EventHandle{};
  }
  if (!active_.empty()) {
    const double total_w = total_active_weight();
    double earliest = std::numeric_limits<double>::infinity();
    for (const Request& req : active_) {
      const double rate =
          speed_ * contexts_[static_cast<std::size_t>(req.ctx)].weight /
          total_w;
      earliest = std::min(earliest, req.remaining_cpu_sec / rate);
    }
    // Round up so that at the event instant every candidate has actually
    // crossed the epsilon threshold.
    SimTime dt = SimTime::from_seconds(earliest) + SimTime::nanos(1);
    completion_event_ = sim_.schedule_after(dt, [this] {
      completion_event_ = EventHandle{};
      advance_to_now();
      complete_and_reschedule();
    });
  }

  // Deliver completions through zero-delay events: a callback typically
  // issues the context's next demand, and synchronous delivery would recurse
  // unboundedly through demand() -> complete_and_reschedule() for chains of
  // tiny tasks.
  for (auto& cb : finished_)
    sim_.schedule_after(SimTime::zero(), std::move(cb));
  finished_.clear();
}

ProcStat Core::proc_stat() const { return proc_stat_at(sim_.now()); }

ProcStat Core::proc_stat_at(SimTime t) const {
  // Accrue lazily without mutating: recompute what advance_to_now would add
  // if the engine clock stood at `t`. Exact for any t that does not pass
  // the engine's next pending event (fluid shares are constant between
  // events) — the header spells out the caller's contract.
  CLB_CHECK_MSG(t >= sim_.now(), "proc_stat_at behind the engine clock: t="
                                     << t.to_string() << " now="
                                     << sim_.now().to_string());
  double busy = busy_sec_;
  const SimTime elapsed = t - last_update_;
  if (!elapsed.is_zero() && !active_.empty()) busy += elapsed.to_seconds();
  ProcStat st;
  st.busy = SimTime::from_seconds(busy);
  st.idle = t - st.busy;
  return st;
}

SimTime Core::context_cpu_time(ContextId ctx) const {
  return context_cpu_time_at(ctx, sim_.now());
}

SimTime Core::context_cpu_time_at(ContextId ctx, SimTime t) const {
  CLB_CHECK(ctx >= 0 && static_cast<std::size_t>(ctx) < contexts_.size());
  CLB_CHECK_MSG(t >= sim_.now(),
                "context_cpu_time_at behind the engine clock: t="
                    << t.to_string() << " now=" << sim_.now().to_string());
  double consumed = contexts_[static_cast<std::size_t>(ctx)].consumed_cpu_sec;
  const SimTime elapsed = t - last_update_;
  if (!elapsed.is_zero()) {
    if (const Request* req = find_active(ctx)) {
      const double rate =
          speed_ * contexts_[static_cast<std::size_t>(ctx)].weight /
          total_active_weight();
      consumed +=
          std::min(req->remaining_cpu_sec, elapsed.to_seconds() * rate);
    }
  }
  return SimTime::from_seconds(consumed);
}

}  // namespace cloudlb
