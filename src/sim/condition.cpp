#include "sim/condition.hpp"

namespace gbc::sim {

void Condition::WaitForAwaiter::await_suspend(std::coroutine_handle<> h) {
  cv.enqueue(rec, h);
  // Race a timer against the condition. A notify that dequeues the record
  // first disarms this event, so when it runs the timer has won.
  rec.timer = cv.eng_->arm(timeout, [s = &rec, c = &cv] {
    s->timer = Suspension::kNoTimer;
    s->timed_out = true;
    c->waiters_.erase(*s);
    s->handle.resume();
  });
}

}  // namespace gbc::sim
