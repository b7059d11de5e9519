#include "machine/power.h"

#include "util/check.h"

namespace cloudlb {

PowerMeter::PowerMeter(EngineCore& clock, Machine& machine,
                       PowerModelConfig config)
    : clock_{&clock}, machine_{machine}, config_{config} {}

PowerMeter::PowerMeter(Machine& machine, PowerModelConfig config)
    : clock_{nullptr}, machine_{machine}, config_{config} {}

SimTime PowerMeter::now() const {
  CLB_CHECK_MSG(clock_ != nullptr,
                "a power meter without a clock needs explicit instants "
                "(start_at/stop_at), and its energy is defined once stopped");
  return clock_->now();
}

double PowerMeter::total_busy_seconds_at(SimTime t) const {
  double busy = 0.0;
  for (CoreId c = 0; c < machine_.num_cores(); ++c)
    busy += machine_.core(c).proc_stat_at(t).busy.to_seconds();
  return busy;
}

void PowerMeter::start() { start_at(now()); }

void PowerMeter::stop() {
  if (running_) stop_at(now());
}

void PowerMeter::start_at(SimTime t) {
  CLB_CHECK_MSG(!running_, "power meter already running");
  running_ = true;
  start_time_ = t;
  busy_at_start_ = total_busy_seconds_at(t);
}

void PowerMeter::stop_at(SimTime t) {
  if (!running_) return;
  CLB_CHECK_MSG(t >= start_time_, "power meter stopped before it started");
  running_ = false;
  stop_time_ = t;
  busy_at_stop_ = total_busy_seconds_at(t);
}

SimTime PowerMeter::window() const {
  return (running_ ? now() : stop_time_) - start_time_;
}

double PowerMeter::energy_joules() const {
  const double busy_end =
      running_ ? total_busy_seconds_at(now()) : busy_at_stop_;
  const double busy = busy_end - busy_at_start_;
  const double wall = window().to_seconds();
  return config_.base_watts_per_node * machine_.num_nodes() * wall +
         config_.dynamic_watts_per_core * busy;
}

double PowerMeter::average_power_watts() const {
  const double wall = window().to_seconds();
  if (wall <= 0.0) return 0.0;
  return energy_joules() / wall;
}

}  // namespace cloudlb
