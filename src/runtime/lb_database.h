#pragma once

#include <vector>

#include "lb/framework.h"

namespace cloudlb {

/// Accumulates per-chare CPU time between load-balancing steps — the
/// simulated Charm++ LB database. The runtime records every executed task;
/// the window is cleared after each LB step so measurements always describe
/// the most recent period (the paper's principle of persistence: the last
/// window predicts the next).
class LbDatabase {
 public:
  /// Resets all accumulators and (re)sizes to `num_chares`.
  void reset(std::size_t num_chares);

  /// Clears the current window, keeping the size.
  void clear_window();

  /// Adds `cpu_sec` of measured task time to a chare's window total.
  void record_task(ChareId chare, double cpu_sec);

  /// CPU accumulated by a chare in the current window.
  double chare_cpu(ChareId chare) const;

  std::size_t num_chares() const { return window_cpu_.size(); }

 private:
  std::vector<double> window_cpu_;
};

}  // namespace cloudlb
