#include "runtime/ampi.h"

#include "util/check.h"

namespace cloudlb::ampi {

namespace {

// Internal chare tags; user tags are offset past them.
enum AmpiTag : int {
  kCompute = 0,
  kReduceUp = 1,
  kReduceDown = 2,
  kUserBase = 16,
};

// Per-message software overhead and per-value copy cost charged for
// handling deliveries (an MPI stack is not free).
constexpr double kHandlerOverheadSec = 1e-6;
constexpr double kPerValueSec = 1e-8;

}  // namespace

Rank::Rank(int rank, int world_size, Main main)
    : rank_{rank}, world_size_{world_size}, main_{std::move(main)} {
  CLB_CHECK(rank >= 0 && rank < world_size);
  CLB_CHECK(main_ != nullptr);
}

void Rank::on_start() { main_(*this); }

void Rank::send(int dest, int user_tag, std::vector<double> data) {
  CLB_CHECK_MSG(user_tag >= 0, "user tags must be non-negative");
  CLB_CHECK(dest >= 0 && dest < world_size_);
  Chare::send(static_cast<ChareId>(dest), kUserBase + user_tag,
              std::move(data));
}

void Rank::recv(int src, int user_tag,
                std::function<void(std::vector<double>)> k) {
  CLB_CHECK(k != nullptr);
  CLB_CHECK(src >= 0 && src < world_size_);
  auto it = unexpected_.find({src, user_tag});
  if (it != unexpected_.end() && !it->second.empty()) {
    std::vector<double> payload = std::move(it->second.front());
    it->second.pop_front();
    k(std::move(payload));
    return;
  }
  pending_recvs_.push_back(PendingRecv{src, user_tag, std::move(k)});
}

void Rank::compute(SimTime cpu, std::function<void()> k) {
  CLB_CHECK(k != nullptr);
  CLB_CHECK(!cpu.is_negative());
  const int id = next_compute_id_++;
  compute_conts_.emplace(id, std::move(k));
  Chare::send(this->id(), kCompute,
              {static_cast<double>(id), cpu.to_seconds()});
}

void Rank::barrier(std::function<void()> k) {
  allreduce_sum(0.0, [k = std::move(k)](double) { k(); });
}

void Rank::allreduce_sum(double value, std::function<void(double)> k) {
  CLB_CHECK(k != nullptr);
  CLB_CHECK_MSG(reduce_cont_ == nullptr,
                "one collective at a time per rank");
  reduce_cont_ = std::move(k);
  if (rank_ == 0) {
    root_collect(value);
  } else {
    Chare::send(0, kReduceUp, {value});
  }
}

void Rank::root_collect(double value) {
  CLB_CHECK(rank_ == 0);
  root_sum_ += value;
  if (++root_arrivals_ == world_size_) {
    const double total = root_sum_;
    root_arrivals_ = 0;
    root_sum_ = 0.0;
    for (int r = 0; r < world_size_; ++r)
      Chare::send(static_cast<ChareId>(r), kReduceDown, {total});
  }
}

void Rank::finish_reduction(double total) {
  CLB_CHECK_MSG(reduce_cont_ != nullptr,
                "reduction result with no collective outstanding");
  auto k = std::move(reduce_cont_);
  reduce_cont_ = nullptr;
  k(total);
}

void Rank::sync(std::function<void()> k) {
  CLB_CHECK(k != nullptr);
  CLB_CHECK_MSG(sync_cont_ == nullptr, "sync already in progress");
  sync_cont_ = std::move(k);
  at_sync();
}

void Rank::on_resume_sync() {
  CLB_CHECK_MSG(sync_cont_ != nullptr, "resumed without a pending sync");
  auto k = std::move(sync_cont_);
  sync_cont_ = nullptr;
  k();
}

void Rank::done() { finish(); }

SimTime Rank::cost(const Message& msg) const {
  if (msg.tag == kCompute) {
    CLB_CHECK(msg.data.size() == 2);
    return SimTime::from_seconds(msg.data[1]);
  }
  return SimTime::from_seconds(kHandlerOverheadSec +
                               kPerValueSec *
                                   static_cast<double>(msg.data.size()));
}

void Rank::execute(Message& msg) {
  switch (msg.tag) {
    case kCompute: {
      const int id = static_cast<int>(msg.data[0]);
      auto it = compute_conts_.find(id);
      CLB_CHECK_MSG(it != compute_conts_.end(), "unknown compute block");
      auto k = std::move(it->second);
      compute_conts_.erase(it);
      k();
      return;
    }
    case kReduceUp:
      CLB_CHECK(msg.data.size() == 1);
      root_collect(msg.data[0]);
      return;
    case kReduceDown:
      CLB_CHECK(msg.data.size() == 1);
      finish_reduction(msg.data[0]);
      return;
    default: {
      CLB_CHECK_MSG(msg.tag >= kUserBase, "unknown AMPI message tag");
      deliver_user(static_cast<int>(msg.src), msg.tag - kUserBase,
                   std::move(msg.data));
      return;
    }
  }
}

void Rank::deliver_user(int src, int user_tag, std::vector<double> payload) {
  for (auto it = pending_recvs_.begin(); it != pending_recvs_.end(); ++it) {
    if (it->src == src && it->user_tag == user_tag) {
      auto k = std::move(it->k);
      pending_recvs_.erase(it);
      k(std::move(payload));
      return;
    }
  }
  unexpected_[{src, user_tag}].push_back(std::move(payload));
}

void populate_ranks(RuntimeJob& job, int ranks, Rank::Main main) {
  CLB_CHECK(ranks > 0);
  for (int r = 0; r < ranks; ++r) {
    // Rank::send routes user messages with `ChareId == rank`, so the ids
    // add_chare hands back must line up with the rank numbers — which
    // only holds when the job had no chares before populate_ranks. A job
    // seeded with other chares first would silently cross-deliver every
    // AMPI message; fail loudly instead.
    const ChareId id = job.add_chare(std::make_unique<Rank>(r, ranks, main));
    CLB_CHECK_MSG(id == static_cast<ChareId>(r),
                  "populate_ranks requires an empty job: rank "
                      << r << " was assigned chare id " << id
                      << " (AMPI routes messages by rank == chare id)");
  }
}

}  // namespace cloudlb::ampi
