// Fixture: analyzer-stale-handle must fire on every use of an
// EventHandle after Simulator::cancel retired it, at the exact line of
// the stale read.
#include "cloudlb_mock.h"

namespace fixture {

void observe(cloudlb::EventHandle h);

// The canonical bug: cancel, then hand the dead handle onwards.
void cancel_then_read(cloudlb::Simulator& sim, cloudlb::EventHandle h) {
  static_cast<void>(sim.cancel(h));
  observe(h);  // EXPECT-ANALYZER(stale-handle)
}

// Probing validity of a retired handle is still a read of dead state.
bool cancel_then_valid(cloudlb::Simulator& sim, cloudlb::EventHandle h) {
  static_cast<void>(sim.cancel(h));
  return h.valid();  // EXPECT-ANALYZER(stale-handle)
}

// Cancelling twice: the second cancel acts on a slot that may already
// hold an unrelated event.
void double_cancel(cloudlb::Simulator& sim, cloudlb::EventHandle h) {
  static_cast<void>(sim.cancel(h));
  static_cast<void>(sim.cancel(h));  // EXPECT-ANALYZER(stale-handle)
}

// Member handles are tracked like locals.
struct Meter {
  cloudlb::Simulator* sim;
  cloudlb::EventHandle tick;
  void stop() {
    static_cast<void>(sim->cancel(tick));
    observe(tick);  // EXPECT-ANALYZER(stale-handle)
  }
};

}  // namespace fixture
