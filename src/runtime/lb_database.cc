#include "runtime/lb_database.h"

#include <algorithm>

#include "util/check.h"

namespace cloudlb {

void LbDatabase::reset(std::size_t num_chares) {
  window_cpu_.assign(num_chares, 0.0);
}

void LbDatabase::clear_window() {
  std::fill(window_cpu_.begin(), window_cpu_.end(), 0.0);
}

void LbDatabase::record_task(ChareId chare, double cpu_sec) {
  CLB_CHECK(chare >= 0 &&
            static_cast<std::size_t>(chare) < window_cpu_.size());
  CLB_CHECK(cpu_sec >= 0.0);
  window_cpu_[static_cast<std::size_t>(chare)] += cpu_sec;
}

double LbDatabase::chare_cpu(ChareId chare) const {
  CLB_CHECK(chare >= 0 &&
            static_cast<std::size_t>(chare) < window_cpu_.size());
  return window_cpu_[static_cast<std::size_t>(chare)];
}

}  // namespace cloudlb
