// Fixture: patterns analyzer-stale-handle must NOT flag — the repo's
// blessed cancel-then-reassign idioms, checked cancels, and lambda
// bodies (which run at a different simulated time and are opaque to the
// source-order analysis).
#include "cloudlb_mock.h"

#define FIXTURE_CHECK(cond) ((cond) ? (void)0 : fixture::fail())

namespace fixture {

void fail();
void observe(cloudlb::EventHandle h);

// cancel then rearm: the reassignment revives the handle.
void cancel_then_rearm(cloudlb::Simulator& sim, cloudlb::EventHandle h) {
  static_cast<void>(sim.cancel(h));
  h = sim.schedule_after(cloudlb::SimTime::millis(5), [] {});
  observe(h);
}

// cancel then reset to the null handle, then probe: the idiom core.cc
// and power.cc use.
void reset_to_null(cloudlb::Simulator& sim, cloudlb::EventHandle h) {
  static_cast<void>(sim.cancel(h));
  h = cloudlb::EventHandle{};
  if (h.valid()) observe(h);
}

// The handle read inside the cancel call itself is part of the cancel,
// including through a CLB_CHECK-style macro.
void checked_macro(cloudlb::Simulator& sim, cloudlb::EventHandle h) {
  FIXTURE_CHECK(sim.cancel(h));
  h = cloudlb::EventHandle{};
}

// A lambda capturing the handle runs later (or never); no ordering fact
// about this body applies inside it.
void lambda_is_opaque(cloudlb::Simulator& sim, cloudlb::EventHandle h) {
  static_cast<void>(sim.cancel(h));
  static_cast<void>(
      sim.schedule_after(cloudlb::SimTime::millis(1), [&h] { observe(h); }));
}

}  // namespace fixture
