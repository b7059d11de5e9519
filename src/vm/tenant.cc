#include "vm/tenant.h"

#include "util/check.h"

namespace cloudlb {

TenantField::TenantField(EngineCore& sim, Machine& machine,
                         TenantFieldConfig config)
    : sim_{sim}, config_{config}, rng_{config.seed} {
  CLB_CHECK(config.num_tenants >= 0);
  CLB_CHECK(config.mean_on_seconds > 0.0);
  CLB_CHECK(config.mean_off_seconds > 0.0);
  tenants_.reserve(static_cast<std::size_t>(config.num_tenants));
  for (int t = 0; t < config.num_tenants; ++t) {
    const auto core = static_cast<CoreId>(
        rng_.uniform_int(0, machine.num_cores() - 1));
    SyntheticInterferer::Config hog_config;
    hog_config.duty_cycle = config.duty_cycle;
    hog_config.weight = config.weight;
    tenants_.push_back(Tenant{
        std::make_unique<SyntheticInterferer>(sim, machine,
                                              std::vector<CoreId>{core},
                                              hog_config),
        core});
  }
}

void TenantField::start() {
  CLB_CHECK_MSG(!running_, "tenant field already running");
  running_ = true;
  for (int t = 0; t < num_tenants(); ++t) {
    // Desynchronize: each tenant waits a random slice of an off-period.
    const SimTime stagger = SimTime::from_seconds(
        rng_.uniform(0.0, config_.mean_off_seconds));
    sim_.schedule_after(stagger, [this, t] { schedule_on(t); });
  }
}

void TenantField::stop() { running_ = false; }

void TenantField::schedule_on(int tenant) {
  if (!running_) return;
  auto& hog = *tenants_[static_cast<std::size_t>(tenant)].hog;
  if (!hog.active()) hog.start();
  const SimTime on = SimTime::from_seconds(
      rng_.exponential(config_.mean_on_seconds));
  sim_.schedule_after(on, [this, tenant] { schedule_off(tenant); });
}

void TenantField::schedule_off(int tenant) {
  auto& hog = *tenants_[static_cast<std::size_t>(tenant)].hog;
  if (hog.active()) hog.stop();
  if (!running_) return;
  const SimTime off = SimTime::from_seconds(
      rng_.exponential(config_.mean_off_seconds));
  sim_.schedule_after(off, [this, tenant] { schedule_on(tenant); });
}

int TenantField::active_tenants() const {
  int active = 0;
  for (const Tenant& t : tenants_)
    if (t.hog->active()) ++active;
  return active;
}

CoreId TenantField::core_of_tenant(int tenant) const {
  CLB_CHECK(tenant >= 0 &&
            static_cast<std::size_t>(tenant) < tenants_.size());
  return tenants_[static_cast<std::size_t>(tenant)].core;
}

SimTime TenantField::cpu_consumed() const {
  SimTime total = SimTime::zero();
  for (const Tenant& t : tenants_) total += t.hog->cpu_consumed();
  return total;
}

}  // namespace cloudlb
