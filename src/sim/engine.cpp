#include "sim/engine.hpp"

#include <cassert>
#include <stdexcept>

namespace gbc::sim {

namespace {

// Detached driver coroutine: eagerly started, self-destroying.
struct Detached {
  struct promise_type : PooledFrame {
    Detached get_return_object() { return {}; }
    std::suspend_never initial_suspend() noexcept { return {}; }
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() {}
    void unhandled_exception() { std::terminate(); }
  };
};

Detached drive(Engine* eng, Task<void> body) {
  try {
    co_await std::move(body);
  } catch (const SimAborted&) {
    // Normal teardown path.
  } catch (...) {
    eng->internal_process_error(std::current_exception());
  }
  eng->internal_process_exit();
}

}  // namespace

Engine::~Engine() = default;

std::uint32_t Engine::acquire_slot(InlineFn fn) {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    slots_[slot] = std::move(fn);
    return slot;
  }
  slots_.push_back(std::move(fn));
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

std::uint32_t Engine::push(Time t, std::uint64_t seq, InlineFn fn) {
  assert(t >= now_ && "scheduling into the past");
  const std::uint32_t slot = acquire_slot(std::move(fn));
  queue_.push(QueuedEvent{t < now_ ? now_ : t, seq, slot});
  return slot;
}

void Engine::schedule_at(Time t, InlineFn fn) {
  push(t, next_seq_++, std::move(fn));
}

void Engine::schedule_after(Time delay, InlineFn fn) {
  arm(delay, std::move(fn));
}

void Engine::schedule_at_back(Time t, InlineFn fn) {
  push(t, next_seq_++ | kBackBand, std::move(fn));
}

std::uint32_t Engine::arm(Time delay, InlineFn fn) {
  return push(now_ + (delay < 0 ? 0 : delay), next_seq_++, std::move(fn));
}

void Engine::spawn(Task<void> body) {
  ++live_;
  drive(this, std::move(body));
}

void Engine::step(const QueuedEvent& ev) {
  now_ = ev.t;
  ++events_;
  // Move the callable out before invoking: the callback may schedule new
  // events, which can recycle this slot or grow the slot vector.
  InlineFn fn = std::move(slots_[ev.slot]);
  free_slots_.push_back(ev.slot);
  fn();
}

void Engine::run() {
  QueuedEvent ev;
  while (queue_.pop(kMaxSimTime, ev)) {
    step(ev);
    if (!errors_.empty()) {
      auto e = errors_.front();
      errors_.clear();
      std::rethrow_exception(e);
    }
  }
}

void Engine::run_until(Time t) {
  QueuedEvent ev;
  while (queue_.pop(t, ev)) {
    step(ev);
    if (!errors_.empty()) {
      auto e = errors_.front();
      errors_.clear();
      std::rethrow_exception(e);
    }
  }
  if (t > now_) now_ = t;
}

void Engine::abort_all() {
  aborted_ = true;
  // Resuming a record unwinds its frame, which can park new (immediately
  // throwing) records; they join the back of the list and are woken in
  // turn, after every record parked before them.
  while (Suspension* s = parked_.pop_front()) s->handle.resume();
  // Drop any queued callbacks: wakes and timers of records resumed above
  // hold pointers into frames that are gone now.
  queue_.clear();
  slots_.clear();
  free_slots_.clear();
}

void Engine::DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  rec.handle = h;
  eng.park(rec);
  // The record lives in the suspended frame until this timer (or
  // abort_all, which drops the timer unrun) resumes it.
  eng.schedule_after(delay, [s = &rec] { s->handle.resume(); });
}

}  // namespace gbc::sim
