#include "runtime/job.h"

#include <algorithm>
#include <utility>

#include "runtime/shard_partition.h"
#include "runtime/sharded_runtime.h"
#include "util/check.h"
#include "util/log.h"
#include "util/shard_annotations.h"
#include "util/validate.h"

namespace cloudlb {

// Burst-continuation rank for chare c (EngineCore::schedule_at_ranked):
// chare index order — the order the legacy engine's broadcast loops insert
// per-chare continuations — offset by one so rank 0 stays the unranked
// default carried by everything outside a burst chain.
static std::uint64_t chare_rank(std::size_t c) {
  return static_cast<std::uint64_t>(c) + 1;
}

RuntimeJob::RuntimeJob(Simulator* sim, ShardedRuntimeHost* host,
                       VirtualMachine& vm, JobConfig config,
                       std::unique_ptr<LoadBalancer> balancer)
    : sim_{sim},
      host_{host},
      vm_{vm},
      config_{std::move(config)},
      balancer_{std::move(balancer)} {
  CLB_CHECK_MSG(balancer_ != nullptr,
                "a balancer is required; use NullLb for the noLB baseline");
  CLB_CHECK(config_.lb_period >= 0);
  CLB_CHECK(config_.pack_sec_per_byte >= 0.0);
  CLB_CHECK(config_.unpack_sec_per_byte >= 0.0);
  CLB_CHECK(config_.migration_retry_backoff > SimTime::zero());
  if (host_ != nullptr) host_->register_job(this);
}

RuntimeJob::RuntimeJob(Simulator& sim, VirtualMachine& vm, JobConfig config,
                       std::unique_ptr<LoadBalancer> balancer)
    : RuntimeJob{&sim, nullptr, vm, std::move(config), std::move(balancer)} {}

RuntimeJob::RuntimeJob(ShardedRuntimeHost& host, VirtualMachine& vm,
                       JobConfig config, std::unique_ptr<LoadBalancer> balancer)
    : RuntimeJob{nullptr, &host, vm, std::move(config), std::move(balancer)} {}

RuntimeJob::~RuntimeJob() = default;

EngineCore& RuntimeJob::engine_of_shard(int shard) const {
  if (host_ == nullptr) return *sim_;
  return host_->engine_of_shard(shard);
}

bool RuntimeJob::in_window() const {
  return host_ != nullptr && host_->in_window();
}

SimTime RuntimeJob::global_now() const {
  return host_ != nullptr ? host_->global_now() : sim_->now();
}

ChareId RuntimeJob::add_chare(std::unique_ptr<Chare> chare) {
  CLB_CHECK_MSG(!started_, "cannot add chares after start()");
  CLB_CHECK(chare != nullptr);
  const auto id = static_cast<ChareId>(chares_.size());
  chare->job_ = this;
  chare->id_ = id;
  chares_.push_back(std::move(chare));
  return id;
}

void RuntimeJob::start() {
  CLB_CHECK_MSG(!started_, "job already started");
  CLB_CHECK_MSG(!chares_.empty(), "job has no chares");
  started_ = true;
  start_time_ = global_now();

  const auto num_chares = chares_.size();
  const auto num_pes = static_cast<std::size_t>(vm_.num_vcpus());
  CLB_CHECK_MSG(num_chares >= num_pes,
                "overdecomposition requires at least one chare per PE");

  // Block initial mapping: chare i -> PE i·P/N, the even static
  // decomposition a homogeneous dedicated machine would want.
  assignment_.resize(num_chares);
  for (std::size_t i = 0; i < num_chares; ++i)
    assignment_[i] = static_cast<PeId>(i * num_pes / num_chares);

  pes_.clear();
  pes_.resize(num_pes);
  chare_done_.assign(num_chares, 0);

  // PEs follow their cores' nodes onto the host's shards; a Simulator is
  // one shard holding everything.
  int shards = 1;
  shard_of_pe_.assign(num_pes, 0);
  if (host_ != nullptr) {
    shards = host_->shards();
    CLB_CHECK_MSG(observer_ == nullptr || shards == 1,
                  "execution observers need a one-shard job; with "
                      << shards << " shards windows would invoke them out "
                      "of global order, from worker threads");
    for (std::size_t p = 0; p < num_pes; ++p)
      shard_of_pe_[p] = host_->shard_of_core(vm_.core_of(static_cast<int>(p)));
  }
  part_ = std::make_unique<ShardPartition>(shards, num_chares);
  reset_lb_window();

  for (auto& chare : chares_) chare->on_start();
}

SimTime RuntimeJob::finish_time() const {
  CLB_CHECK_MSG(finished_, "job not finished yet");
  return finish_time_;
}

SimTime RuntimeJob::elapsed() const { return finish_time() - start_time_; }

PeId RuntimeJob::pe_of(ChareId chare) const {
  CLB_CHECK(chare >= 0 && static_cast<std::size_t>(chare) < chares_.size());
  CLB_CHECK_MSG(started_, "mapping exists only after start()");
  return assignment_[static_cast<std::size_t>(chare)];
}

Chare& RuntimeJob::chare(ChareId id) {
  CLB_CHECK(id >= 0 && static_cast<std::size_t>(id) < chares_.size());
  return *chares_[static_cast<std::size_t>(id)];
}

SimTime RuntimeJob::cpu_consumed() const {
  SimTime total = SimTime::zero();
  for (int p = 0; p < vm_.num_vcpus(); ++p) total += vm_.vcpu_cpu_time(p);
  return total;
}

RuntimeJob::Counters RuntimeJob::counters() const {
  Counters c = counters_;
  if (part_ != nullptr) {
    c.tasks_executed = part_->tasks_total();
    c.messages_sent = part_->messages_total();
  }
  return c;
}

void RuntimeJob::send(ChareId from, ChareId to, int tag,
                      std::vector<double> data, std::size_t bytes) {
  CLB_CHECK_MSG(started_, "send before start()");
  CLB_CHECK_MSG(!lb_in_progress_,
                "AtSync contract violated: send during a LB barrier");
  CLB_CHECK(to >= 0 && static_cast<std::size_t>(to) < chares_.size());

  Message msg;
  msg.src = from;
  msg.dest = to;
  msg.tag = tag;
  msg.data = std::move(data);
  msg.bytes = bytes != 0 ? bytes
                         : msg.data.size() * sizeof(double) +
                               kMessageEnvelopeBytes;
  const PeId from_pe = pe_of(from);
  const PeId to_pe = pe_of(to);
  ++part_->seg(shard_of_pe(from_pe)).messages_sent;

  const CoreId src_core = core_of_pe(from_pe);
  const CoreId dst_core = core_of_pe(to_pe);
  const SimTime base = ctx_now(from_pe);
  const SimTime delay = network_delay(src_core, dst_core, msg.bytes);
  auto deliver_cb = [this, m = std::move(msg)]() mutable {
    deliver(std::move(m));
  };
  static_assert(EngineCore::Callback::fits_inline<decltype(deliver_cb)>(),
                "message delivery must not allocate its callback");
  route_to(from_pe, to_pe, base, delay, std::move(deliver_cb));
}

std::vector<double> RuntimeJob::take_payload(ChareId chare) {
  return pes_[static_cast<std::size_t>(pe_of(chare))].take_payload();
}

void RuntimeJob::recycle_payload(ChareId chare, std::vector<double> buffer) {
  pes_[static_cast<std::size_t>(pe_of(chare))].recycle(std::move(buffer));
}

void RuntimeJob::route_to(PeId from_pe, PeId to_pe, SimTime base,
                          SimTime delay, EngineCore::Callback&& cb) {
  const int src_shard = shard_of_pe(from_pe);
  const int dst_shard = shard_of_pe(to_pe);
  if (in_window() && src_shard != dst_shard) {
    // Mid-window the caller sits on the source shard whose clock is
    // `base`, so the windowed channel delivers at base + delay; delay is
    // at least the inter-node latency, which lower-bounds the window.
    host_->post(src_shard, dst_shard, delay, std::move(cb));
    return;
  }
  // Outside windows everything runs serialized (global phases, setup,
  // timed actions), and mid-window this is shard-local: direct
  // scheduling is deterministic, and the destination clock is at or
  // behind base. The send stamp is `base` — the sender's instant — so
  // same-time arrivals at the destination interleave by send order, as
  // on a single engine.
  engine_of_pe(to_pe).schedule_at_stamped(base + delay, base, std::move(cb));
}

SimTime RuntimeJob::network_delay(CoreId src, CoreId dst,
                                  std::size_t bytes) const {
  return delivery_delay(config_.network, bytes,
                        vm_.machine().same_node(src, dst));
}

SimTime RuntimeJob::sampled_idle_at(PeId pe, SimTime t) const {
  const SimTime idle = vm_.host_proc_stat_at(static_cast<int>(pe), t).idle;
  const SimTime q = config_.proc_stat_quantum;
  if (q.is_zero()) return idle;
  return SimTime::nanos(idle.ns() / q.ns() * q.ns());  // floor to a jiffy
}

void RuntimeJob::deliver(Message msg) {
  // Route by the *current* mapping: migrations happen only at barriers,
  // when no application messages are in flight, so this never misroutes.
  const PeId pe = pe_of(msg.dest);
  pes_[static_cast<std::size_t>(pe)].queue.push_back(std::move(msg));
  start_next_task(pe);
}

void RuntimeJob::start_next_task(PeId pe) {
  auto& p = pes_[static_cast<std::size_t>(pe)];
  if (p.executing || p.head == p.queue.size()) return;
  CLB_CHECK_MSG(!lb_in_progress_,
                "AtSync contract violated: task runnable during LB barrier");

  p.current = std::move(p.queue[p.head++]);
  if (p.head == p.queue.size()) {
    p.queue.clear();  // drained: restart at the front, keeping capacity
    p.head = 0;
  } else if (2 * p.head >= p.queue.size()) {
    // A queue that does not drain: drop the consumed front half, so the
    // vector stays within twice the waiting messages.
    p.queue.erase(p.queue.begin(),
                  p.queue.begin() + static_cast<std::ptrdiff_t>(p.head));
    p.head = 0;
  }
  p.executing = true;

  Chare& target = *chares_[static_cast<std::size_t>(p.current.dest)];
  const SimTime cost = target.cost(p.current);
  CLB_CHECK(!cost.is_negative());
  target.on_task_start(p.current);
  const SimTime begin = ctx_now(pe);

  auto on_done = [this, pe, begin, cost] { finish_task(pe, begin, cost); };
  static_assert(EngineCore::Callback::fits_inline<decltype(on_done)>(),
                "task completion must not allocate its callback");
  vm_.demand(pe, cost, std::move(on_done));
}

void RuntimeJob::finish_task(PeId pe, SimTime begin, SimTime cost) {
  auto& p = pes_[static_cast<std::size_t>(pe)];
  Message& m = p.current;
  auto& seg = part_->seg(shard_of_pe(pe));
  seg.db.record_task(m.dest, cost.to_seconds());
  ++seg.tasks_executed;
  if (observer_ != nullptr)
    observer_->on_task_executed(*this, pe, core_of_pe(pe), m.dest, m.tag,
                                begin, ctx_now(pe));
  // Nothing in execute() can start this PE's next task (p.executing
  // holds it back), so `m` stays put while the handler runs.
  chares_[static_cast<std::size_t>(m.dest)]->execute(m);
  p.executing = false;
  // For this PE's next sends, unless the handler took the payload over:
  // a moved-from vector owns no storage, and recycle skips it.
  p.recycle(std::move(m.data));
  pump_service(pe);
  start_next_task(pe);
}

void RuntimeJob::at_sync(ChareId chare) {
  CLB_CHECK_MSG(config_.lb_period > 0,
                "at_sync called but lb_period is 0 (balancing disabled)");
  CLB_CHECK(!lb_in_progress_);
  CLB_CHECK(!chare_done_[static_cast<std::size_t>(chare)]);
  const PeId pe = pe_of(chare);
  auto& seg = part_->seg(shard_of_pe(pe));
  const SimTime t = ctx_now(pe);
  ++seg.sync_count;
  seg.last_sync_time = t;
  seg.last_sync_rank = engine_of_pe(pe).inherited_rank();
  // Mid-window only the shard-local subtotal is touched; completion is
  // detected at the barrier (merge_window_state) or, in a global phase,
  // right here with the merged counts.
  if (!in_window()) maybe_complete_sync_wave(t);
}

void RuntimeJob::maybe_complete_sync_wave(SimTime t) {
  const std::size_t live = chares_.size() - part_->finished_total();
  const std::size_t sync = part_->sync_total();
  CLB_CHECK(sync <= live);
  if (sync == live) begin_lb_barrier(t);
}

void RuntimeJob::begin_lb_barrier(SimTime t) {
  (void)t;  // == global_now(): asserted below
  CLB_CHECK(t == global_now());
  part_->clear_sync();
  lb_in_progress_ = true;
  // The gather/decide/broadcast of the LB framework is real CPU work on
  // the master PE — if that core is interfered, the decision itself slows
  // down, exactly as it would in the paper's setup.
  enqueue_service(0, config_.lb_decision_overhead, [this] { run_lb_step(); });
}

void RuntimeJob::contribute(ChareId chare, double value) {
  CLB_CHECK(!lb_in_progress_);
  CLB_CHECK(!chare_done_[static_cast<std::size_t>(chare)]);
  const PeId pe = pe_of(chare);
  auto& seg = part_->seg(shard_of_pe(pe));
  const SimTime t = ctx_now(pe);
  seg.contributions.emplace_back(t, value);
  seg.last_contribution_rank = engine_of_pe(pe).inherited_rank();
  ++seg.red_count;
  if (!in_window()) maybe_complete_reduction(t);
}

void RuntimeJob::maybe_complete_reduction(SimTime t) {
  const std::size_t live = chares_.size() - part_->finished_total();
  const std::size_t red = part_->red_total();
  CLB_CHECK_MSG(red <= live,
                "more contributions than live chares in one reduction");
  if (red != live) return;
  const double result = part_->reduction_sum();
  part_->clear_reduction();
  complete_reduction(t, result);
}

void RuntimeJob::complete_reduction(SimTime t, double result) {
  CLB_CHECK(t == global_now());
  // One broadcast event per shard at the same instant, each delivering to
  // its own live chares in index order — the shard-local half of the
  // broadcast tree. Executed in (time, shard) order by the global phase,
  // which broadcasts_pending_ keeps active until the last one ran. Each
  // chare's deliveries are ranked individually: without the override,
  // everything the whole shard schedules would share the broadcast
  // event's rank and same-(time, stamp) sends from different shards
  // would interleave shard-major instead of by chare.
  for (int s = 0; s < part_->shards(); ++s) {
    ++broadcasts_pending_;
    engine_of_shard(s).schedule_at_stamped(
        t + config_.reduction_latency, t, [this, s, result] {
          EngineCore& eng = engine_of_shard(s);
          for (std::size_t c = 0; c < chares_.size(); ++c) {
            if (chare_done_[c]) continue;
            if (shard_of_pe(assignment_[c]) != s) continue;
            eng.set_current_rank(chare_rank(c));
            chares_[c]->on_reduction_result(result);
          }
          --broadcasts_pending_;
        });
  }
}

LbStats RuntimeJob::collect_stats() const {
  LbStats stats;
  const SimTime now = global_now();
  stats.pes.resize(pes_.size());
  for (std::size_t p = 0; p < pes_.size(); ++p) {
    PeSample& s = stats.pes[p];
    s.pe = static_cast<PeId>(p);
    s.core = core_of_pe(static_cast<PeId>(p));
    s.wall_sec = (now - pes_[p].window_start).to_seconds();
    s.core_idle_sec =
        (sampled_idle_at(static_cast<PeId>(p), now) - pes_[p].idle_anchor)
            .to_seconds();
  }
  stats.chares.resize(chares_.size());
  for (std::size_t c = 0; c < chares_.size(); ++c) {
    ChareSample& s = stats.chares[c];
    s.chare = static_cast<ChareId>(c);
    s.pe = assignment_[c];
    s.cpu_sec = part_->chare_cpu(static_cast<ChareId>(c));
    s.bytes = chares_[c]->footprint_bytes();
    stats.pes[static_cast<std::size_t>(s.pe)].task_cpu_sec += s.cpu_sec;
  }
  return stats;
}

void RuntimeJob::run_lb_step() {
  LbStats stats = collect_stats();
  // The runtime's own measurement must be sane before faults get to
  // perturb it — a violation here is an accounting bug, not an injected
  // one.
  if (validation_enabled()) stats.validate();
  // Faults enter between measurement and decision: the balancer sees what
  // a real LB daemon would read from a degraded host, while the runtime's
  // own bookkeeping stays truthful.
  if (config_.faults != nullptr) config_.faults->perturb_stats(stats);
  std::vector<PeId> new_assignment = balancer_->assign(stats);
  CLB_CHECK_MSG(new_assignment.size() == chares_.size(),
                "balancer returned a mapping of the wrong size");
  int moves = 0;
  for (std::size_t c = 0; c < new_assignment.size(); ++c) {
    CLB_CHECK_MSG(new_assignment[c] >= 0 &&
                      new_assignment[c] < static_cast<PeId>(pes_.size()),
                  "balancer assigned chare " << c << " to invalid PE");
    if (new_assignment[c] != assignment_[c]) ++moves;
  }
  ++counters_.lb_steps;
  if (observer_ != nullptr)
    observer_->on_lb_step(*this, counters_.lb_steps, ctx_now(0), moves);
  CLB_DEBUG(name() << ": LB step " << counters_.lb_steps << " at "
                   << ctx_now(0).to_string() << ", " << moves
                   << " migrations");

  if (moves == 0) {
    resume_all();
    return;
  }
  begin_migrations(new_assignment);
}

void RuntimeJob::begin_migrations(const std::vector<PeId>& new_assignment) {
  migrations_in_flight_ = 0;
  std::vector<std::pair<ChareId, std::pair<PeId, PeId>>> moves;
  for (std::size_t c = 0; c < new_assignment.size(); ++c) {
    if (new_assignment[c] != assignment_[c]) {
      moves.push_back({static_cast<ChareId>(c),
                       {assignment_[c], new_assignment[c]}});
    }
  }
  // Commit the mapping at decision time; no application messages are in
  // flight at the barrier, so routing stays consistent.
  assignment_ = new_assignment;
  migrations_in_flight_ = static_cast<int>(moves.size());
  for (const auto& [chare, fromto] : moves)
    migrate_chare(chare, fromto.first, fromto.second);
}

void RuntimeJob::migrate_chare(ChareId chare, PeId from, PeId to) {
  // Counters and the observer record the balancer's decision, not the
  // outcome: under failmig faults an attempt may die before any state
  // leaves the PE, yet its bytes stay counted (see Counters docs).
  ++counters_.migrations;
  const std::size_t bytes =
      chares_[static_cast<std::size_t>(chare)]->footprint_bytes();
  counters_.migrated_bytes += static_cast<std::int64_t>(bytes);
  if (observer_ != nullptr) observer_->on_migration(*this, chare, from, to);
  attempt_migration(chare, from, to, /*attempt=*/0);
}

void RuntimeJob::attempt_migration(ChareId chare, PeId from, PeId to,
                                   int attempt) {
  // The fault verdict for this attempt is drawn up front: it decides
  // where in the pack -> transfer -> unpack pipeline the attempt dies.
  // Work done before the failure point is genuinely burned — a failed
  // migration still cost its pack CPU, a partial one its transfer too.
  // Drawn here — at decision time for attempt 0, at retry time after a
  // backoff — in global event order, which every shard count shares, so
  // seeded fault schedules are shard-independent.
  const MigrationFault fault =
      config_.faults != nullptr
          ? config_.faults->on_migration({chare, from, to, attempt})
          : MigrationFault::kNone;

  const std::size_t bytes =
      chares_[static_cast<std::size_t>(chare)]->footprint_bytes();
  const SimTime pack =
      SimTime::from_seconds(config_.pack_sec_per_byte *
                            static_cast<double>(bytes));
  const SimTime unpack =
      SimTime::from_seconds(config_.unpack_sec_per_byte *
                            static_cast<double>(bytes));
  const SimTime transfer =
      network_delay(core_of_pe(from), core_of_pe(to), bytes);

  enqueue_service(
      from, pack, [this, chare, from, to, attempt, unpack, transfer, fault] {
        if (fault == MigrationFault::kFailAtSource) {
          retry_or_abandon(chare, from, to, attempt);
          return;
        }
        auto arrive = [this, chare, from, to, attempt, unpack, fault] {
          if (fault == MigrationFault::kFailAtDest) {
            retry_or_abandon(chare, from, to, attempt);
            return;
          }
          enqueue_service(to, unpack, [this] { migration_done(); });
        };
        // Migrations run only outside windows, where direct
        // cross-engine scheduling is deterministic.
        const SimTime sent = global_now();
        engine_of_pe(to).schedule_at_stamped(sent + transfer, sent,
                                             std::move(arrive));
      });
}

void RuntimeJob::retry_or_abandon(ChareId chare, PeId from, PeId to,
                                  int attempt) {
  if (attempt < config_.migration_max_retries) {
    ++counters_.migration_retries;
    const SimTime backoff =
        config_.migration_retry_backoff *
        (std::int64_t{1} << std::min(attempt, 20));
    CLB_DEBUG(name() << ": migration of chare " << chare << " -> PE " << to
                     << " failed (attempt " << attempt + 1 << "), retrying in "
                     << backoff.to_string());
    auto retry = [this, chare, from, to, attempt] {
      attempt_migration(chare, from, to, attempt + 1);
    };
    // Ranked by chare: retries that fail at the same instant redraw
    // their fault verdicts in chare order on every shard count, whichever
    // engine saw the failures first. Backoff is positive, so the rank
    // never orders the retry before the event scheduling it.
    const SimTime sent = global_now();
    engine_of_pe(from).schedule_at_ranked(
        sent + backoff, sent, chare_rank(static_cast<std::size_t>(chare)),
        std::move(retry));
    return;
  }
  // Out of retries: the source copy stays authoritative, so the chare is
  // simply kept where it was — never lost, never duplicated. Roll the
  // committed mapping back for this chare before the barrier lifts (no
  // application messages are in flight at a barrier, so routing stays
  // consistent).
  ++counters_.migrations_failed;
  assignment_[static_cast<std::size_t>(chare)] = from;
  CLB_WARN(name() << ": migration of chare " << chare << " PE " << from
                  << " -> " << to << " abandoned after " << attempt + 1
                  << " attempts; chare stays on PE " << from);
  migration_done();
}

void RuntimeJob::enqueue_service(PeId pe, SimTime cpu,
                                 std::function<void()> done) {
  CLB_CHECK_MSG(lb_in_progress_, "runtime services run only at LB barriers");
  // Teleport to the PE's own engine: the service demand must anchor on
  // the clock of the engine owning that PE's core, which in a global
  // phase sits exactly at the global instant when the event fires. Same-
  // instant events on one engine run in schedule order, so multiple
  // services pushed to one PE keep their enqueue order. On a Simulator
  // the hop is a zero-delay event on the same engine.
  const SimTime sent = global_now();
  engine_of_pe(pe).schedule_at_stamped(
      sent, sent, [this, pe, cpu, done = std::move(done)]() mutable {
        push_service(pe, cpu, std::move(done));
      });
}

void RuntimeJob::push_service(PeId pe, SimTime cpu,
                              std::function<void()> done) {
  auto& p = pes_[static_cast<std::size_t>(pe)];
  p.services.push_back(ServiceItem{cpu, std::move(done)});
  pump_service(pe);
}

void RuntimeJob::pump_service(PeId pe) {
  auto& p = pes_[static_cast<std::size_t>(pe)];
  if (p.service_active || p.services.empty()) return;
  // The barrier may complete inside the last chare's execute(): its PE is
  // still unwinding the task, so wait for the flag to clear (the task's
  // completion path re-pumps).
  if (p.executing) return;
  ServiceItem item = std::move(p.services.front());
  p.services.pop_front();
  p.service_active = true;
  vm_.demand(pe, item.cpu, [this, pe, done = std::move(item.done)] {
    pes_[static_cast<std::size_t>(pe)].service_active = false;
    done();
    pump_service(pe);
  });
}

void RuntimeJob::migration_done() {
  CLB_CHECK(migrations_in_flight_ > 0);
  if (--migrations_in_flight_ == 0) resume_all();
}

void RuntimeJob::validate_invariants() const {
  CLB_CHECK_MSG(assignment_.size() == chares_.size(),
                "assignment holds " << assignment_.size() << " entries for "
                                    << chares_.size() << " chares");
  CLB_CHECK(chare_done_.size() == chares_.size());
  CLB_CHECK(pes_.size() == static_cast<std::size_t>(vm_.num_vcpus()));

  // Identity audit: chare i must be exactly the object registered as id i
  // and owned by this job — a swapped, lost or duplicated chare shows up
  // here even though the dense mapping vector cannot express it directly.
  std::size_t done = 0;
  for (std::size_t c = 0; c < chares_.size(); ++c) {
    CLB_CHECK_MSG(chares_[c] != nullptr, "chare " << c << " is null");
    CLB_CHECK_MSG(chares_[c]->id_ == static_cast<ChareId>(c),
                  "chare at index " << c << " carries id "
                                    << chares_[c]->id_);
    CLB_CHECK_MSG(chares_[c]->job_ == this,
                  "chare " << c << " is owned by another job");
    CLB_CHECK_MSG(assignment_[c] >= 0 && static_cast<std::size_t>(
                                             assignment_[c]) < pes_.size(),
                  "chare " << c << " mapped to invalid PE "
                           << assignment_[c]);
    if (chare_done_[c]) ++done;
  }
  const std::size_t finished_count =
      part_ != nullptr ? part_->finished_total() : 0;
  CLB_CHECK_MSG(done == finished_count,
                "finished-chare counter " << finished_count
                                          << " disagrees with " << done
                                          << " done flags");

  // Queued messages must target chares currently mapped to their queue's
  // PE: migrations commit only at barriers, when no application messages
  // are in flight, so a misrouted queue means the mapping and the queues
  // were mutated out of step.
  for (std::size_t p = 0; p < pes_.size(); ++p) {
    const Pe& pe = pes_[p];
    for (std::size_t i = pe.head; i < pe.queue.size(); ++i) {
      const Message& m = pe.queue[i];
      CLB_CHECK(m.dest >= 0 &&
                static_cast<std::size_t>(m.dest) < chares_.size());
      CLB_CHECK_MSG(
          assignment_[static_cast<std::size_t>(m.dest)] ==
              static_cast<PeId>(p),
          "message for chare " << m.dest << " queued on PE " << p
                               << " but the chare is mapped to PE "
                               << assignment_[static_cast<std::size_t>(
                                      m.dest)]);
    }
  }

  // Barrier state machine: outside a barrier no migration may be in
  // flight and no runtime service may be queued or active.
  if (!lb_in_progress_) {
    CLB_CHECK(migrations_in_flight_ == 0);
    for (const Pe& pe : pes_) {
      CLB_CHECK(pe.services.empty());
      CLB_CHECK(!pe.service_active);
    }
  }

  // Partition-consistency audit: the per-shard segments must agree with
  // each other and with their own databases.
  if (part_ != nullptr) {
    CLB_CHECK(shard_of_pe_.size() == pes_.size());
    for (const int s : shard_of_pe_)
      CLB_CHECK_MSG(s >= 0 && s < part_->shards(),
                    "PE mapped to shard " << s << " of a " << part_->shards()
                                          << "-segment partition");
    CLB_CHECK_MSG(part_->sync_total() <= chares_.size() - finished_count,
                  "more chares at the barrier than live chares");
    for (int s = 0; s < part_->shards(); ++s) {
      const ShardSegment& seg = part_->seg(s);
      CLB_CHECK_MSG(seg.red_count == seg.contributions.size(),
                    "shard " << s << " reduction counter " << seg.red_count
                             << " disagrees with "
                             << seg.contributions.size()
                             << " logged contributions");
      for (std::size_t i = 1; i < seg.contributions.size(); ++i) {
        CLB_CHECK_MSG(seg.contributions[i - 1].first <=
                          seg.contributions[i].first,
                      "shard " << s
                               << " contribution times out of order at "
                               << i);
      }
    }
  }
}

void RuntimeJob::resume_all() {
  if (validation_enabled()) {
    // The LB step is complete: decision made, migrations done or rolled
    // back. Audit the whole job before the barrier lifts.
    validate_invariants();
  }
  reset_lb_window();
  lb_in_progress_ = false;
  // Zero-delay resumes on each chare's own engine, scheduled in chare
  // index order. Within one shard that is also execution order, and
  // chares on different shards live on different nodes, so nothing that
  // shares a NIC or core reorders — but the resumes all fire at the same
  // instant with the same stamp, so their downstream sends can tie on
  // (time, stamp) at a common destination. The rank (chare index) carries
  // one interleave across every shard count; every event a resume
  // continuation schedules inherits it. The ranks start above the running
  // event's own: completions arrive by zero-delay events, so that event
  // is keyed (t, t, base), and lower ranks would order the burst before
  // it. Every engine reports the running event's rank, so the base is the
  // same on every shard count.
  const SimTime t = global_now();
  const std::uint64_t base = engine_of_pe(0).inherited_rank();
  for (std::size_t c = 0; c < chares_.size(); ++c) {
    if (chare_done_[c]) continue;
    engine_of_pe(assignment_[c])
        .schedule_at_ranked(t, t, base + chare_rank(c), [this, c] {
          chares_[c]->on_resume_sync();
        });
  }
}

void RuntimeJob::reset_lb_window() {
  const SimTime now = global_now();
  part_->clear_windows();
  for (std::size_t p = 0; p < pes_.size(); ++p) {
    pes_[p].window_start = now;
    pes_[p].idle_anchor = sampled_idle_at(static_cast<PeId>(p), now);
  }
}

void RuntimeJob::report_iteration(ChareId chare, int iteration) {
  CLB_CHECK(iteration >= 0);
  const auto it = static_cast<std::size_t>(iteration);
  const PeId pe = pe_of(chare);
  auto& seg = part_->seg(shard_of_pe(pe));
  if (seg.iteration_reports.size() <= it) {
    seg.iteration_reports.resize(it + 1, 0);
    seg.iteration_last_times.resize(it + 1, SimTime::zero());
  }
  ++seg.iteration_reports[it];
  seg.iteration_last_times[it] = ctx_now(pe);  // monotone within a shard
  // Outside a window the merged tally is exact, so the iteration
  // completes at this very report; in-window reports are merged by
  // finalize_shard_state.
  if (!in_window()) merge_iteration(it);
}

void RuntimeJob::merge_iteration(std::size_t it) {
  int reports = 0;
  SimTime last = SimTime::zero();
  for (int s = 0; s < part_->shards(); ++s) {
    const ShardSegment& seg = part_->seg(s);
    if (seg.iteration_reports.size() <= it) continue;
    reports += seg.iteration_reports[it];
    last = std::max(last, seg.iteration_last_times[it]);
  }
  if (iteration_times_.size() <= it) iteration_times_.resize(it + 1);
  // Only fully-reported iterations get a time.
  if (reports == static_cast<int>(chares_.size())) iteration_times_[it] = last;
}

void RuntimeJob::chare_finished(ChareId chare) {
  CLB_CHECK(!chare_done_[static_cast<std::size_t>(chare)]);
  chare_done_[static_cast<std::size_t>(chare)] = 1;
  const PeId pe = pe_of(chare);
  auto& seg = part_->seg(shard_of_pe(pe));
  ++seg.finished_chares;
  seg.last_finish_time = ctx_now(pe);
  // On a host a partial finish forces global phases (needs_global_phase),
  // so by the time the *last* chare finishes we are serialized and the
  // finish instant is exact. The only other route is the all-in-one-
  // window case handled by merge_window_state's rewind recovery.
  if (!in_window() && part_->finished_total() == chares_.size())
    mark_finished(global_now());
}

void RuntimeJob::mark_finished(SimTime t) {
  finished_ = true;
  finish_time_ = t;
  if (host_ != nullptr)
    host_->note_job_finished(*this);
  else
    CLB_INFO(name() << " finished at " << finish_time_.to_string());
}

bool RuntimeJob::needs_global_phase() const {
  CLB_CHECK(host_ != nullptr);
  if (!started_ || finished_) return false;
  if (lb_in_progress_ || broadcasts_pending_ > 0) return true;
  return part_->sync_total() > 0 || part_->red_total() > 0 ||
         part_->finished_total() > 0;
}

void RuntimeJob::merge_window_state() {
  CLB_CHECK(host_ != nullptr);
  CLB_CHECK(!host_->in_window());
  if (!started_ || finished_) return;

  const std::size_t fin = part_->finished_total();
  const std::size_t live = chares_.size() - fin;
  const std::size_t sync = part_->sync_total();
  const std::size_t red = part_->red_total();
  CLB_CHECK(sync <= live);
  CLB_CHECK(red <= live);
  if (lb_in_progress_ || broadcasts_pending_ > 0) return;

  // A collective that started *and* completed inside the window just run:
  // recover the exact completion instant t* by rewinding every shard
  // clock to it (each engine proves nothing ran past t*, else the run
  // fails loudly — the window outran the cascade, i.e. the LB cadence is
  // shorter than the barrier window).
  if (live > 0 && sync > 0 && sync == live) {
    CLB_CHECK_MSG(red == 0,
                  "chares simultaneously at an AtSync barrier and inside a "
                  "reduction");
    const auto [t, rank] = part_->last_sync();
    CLB_CHECK_MSG(fin == 0 || part_->max_finish_time() <= t,
                  name() << ": a chare finished after the last at_sync in "
                            "the same window; barrier completion is "
                            "ambiguous (the legacy engine would stall here)");
    host_->recover_to(t);
    with_inherited_rank(rank, [&] { begin_lb_barrier(t); });
  } else if (live > 0 && red > 0 && red == live) {
    const auto [t, rank] = part_->last_contribution();
    CLB_CHECK_MSG(fin == 0 || part_->max_finish_time() <= t,
                  name() << ": a chare finished after the last contribute "
                            "in the same window; reduction completion is "
                            "ambiguous (the legacy engine would stall here)");
    const double result = part_->reduction_sum();
    part_->clear_reduction();
    host_->recover_to(t);
    with_inherited_rank(rank, [&] { complete_reduction(t, result); });
  } else if (fin == chares_.size()) {
    // Finishing schedules nothing, so there is no rank to carry.
    const SimTime t = part_->max_finish_time();
    host_->recover_to(t);
    mark_finished(t);
  }
}

void RuntimeJob::with_inherited_rank(std::uint64_t rank,
                                     const std::function<void()>& fn) {
  // The driving thread runs outside any event, at rank 0; on one engine
  // the recovered collective would have completed inside the last
  // arrival's event and everything it schedules would inherit that rank.
  for (int s = 0; s < part_->shards(); ++s)
    engine_of_shard(s).set_current_rank(rank);
  fn();
  for (int s = 0; s < part_->shards(); ++s)
    engine_of_shard(s).set_current_rank(0);
}

void RuntimeJob::finalize_shard_state() {
  CLB_CHECK(host_ != nullptr);
  if (!started_) return;
  std::size_t max_it = 0;
  for (int s = 0; s < part_->shards(); ++s)
    max_it = std::max(max_it, part_->seg(s).iteration_reports.size());
  for (std::size_t it = 0; it < max_it; ++it) merge_iteration(it);
}

}  // namespace cloudlb
