#include "support/event_order_oracle.h"

#include "util/check.h"

namespace cloudlb {

EventOrderOracle::Handle EventOrderOracle::schedule_at_ranked(
    SimTime t, SimTime stamp, std::uint64_t rank, Callback cb) {
  CLB_CHECK(t >= now_);
  CLB_CHECK(stamp <= t);
  const Key key{t, stamp, rank, next_seq_++};
  pending_.emplace(key, std::move(cb));
  key_of_seq_.emplace(key.seq, key);
  return Handle{key.seq};
}

bool EventOrderOracle::cancel(Handle h) {
  const auto it = key_of_seq_.find(h.seq);
  if (it == key_of_seq_.end()) return false;
  pending_.erase(it->second);
  key_of_seq_.erase(it);
  return true;
}

bool EventOrderOracle::step() {
  if (pending_.empty()) return false;
  const auto head = pending_.begin();
  const Key key = head->first;
  Callback cb = std::move(head->second);
  pending_.erase(head);
  key_of_seq_.erase(key.seq);
  CLB_CHECK(key.time >= now_);
  now_ = key.time;
  trace_.emplace_back(key.time, key.seq);
  current_rank_ = key.rank;
  cb();
  current_rank_ = 0;
  return true;
}

void EventOrderOracle::run_until(SimTime t) {
  CLB_CHECK(t >= now_);
  while (!pending_.empty() && pending_.begin()->first.time <= t) step();
  now_ = t;
}

void EventOrderOracle::run_before(SimTime t) {
  CLB_CHECK(t >= now_);
  while (!pending_.empty() && pending_.begin()->first.time < t) step();
  now_ = t;
}

std::optional<EventOrderOracle::Key> EventOrderOracle::next_key() const {
  if (pending_.empty()) return std::nullopt;
  return pending_.begin()->first;
}

}  // namespace cloudlb
