#include "sim/engine.hpp"

#include <algorithm>
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

void Engine::schedule_at(Time t, InlineFn fn) {
  assert(t >= now_ && "scheduling into the past");
  queue_.push(QueuedEvent{t < now_ ? now_ : t, next_seq_++,
                          acquire_slot(std::move(fn))});
}

void Engine::schedule_after(Time delay, InlineFn fn) {
  schedule_at(now_ + (delay < 0 ? 0 : delay), std::move(fn));
}

void Engine::schedule_at_back(Time t, InlineFn fn) {
  assert(t >= now_ && "scheduling into the past");
  queue_.push(QueuedEvent{t < now_ ? now_ : t, next_seq_++ | kBackBand,
                          acquire_slot(std::move(fn))});
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
  // Resuming a suspension can cause other suspensions to deregister or new
  // (immediately-throwing) ones to appear, so drain by repeated sweeps; any
  // suspensions registered during a sweep land in the fresh vector and are
  // handled by the next one.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    std::vector<std::weak_ptr<SuspendState>> batch;
    batch.swap(suspensions_);
    for (auto& w : batch) {
      auto sp = w.lock();
      if (sp && sp->alive && !sp->settled) {
        sp->settled = true;
        progressed = true;
        sp->handle.resume();
      }
    }
  }
  // Drop any queued callbacks; their targets checked `alive` anyway.
  queue_.clear();
  slots_.clear();
  free_slots_.clear();
}

void Engine::register_suspension(const std::shared_ptr<SuspendState>& s) {
  suspensions_.push_back(s);
  if (--prune_countdown_ <= 0) {
    std::erase_if(suspensions_,
                  [](const std::weak_ptr<SuspendState>& w) {
                    return w.expired();
                  });
    // Amortized: the next prune is at least half a vector's worth of
    // registrations away, so pruning stays O(1) per registration even when
    // most entries are long-lived.
    prune_countdown_ =
        std::max<int>(256, static_cast<int>(suspensions_.size()));
  }
}

void Engine::DelayAwaiter::await_suspend(std::coroutine_handle<> h) {
  state = eng.make_suspend_state();
  state->handle = h;
  eng.register_suspension(state);
  // Raw capture, not a shared_ptr copy: the awaiter's reference keeps the
  // record alive while the coroutine is suspended, the callback never
  // touches it after resume(), and a callback dropped unrun (abort_all /
  // teardown clears the queue) destroys only the pointer.
  eng.schedule_after(delay, [s = state.get()] {
    if (s->settled) return;
    s->settled = true;
    if (s->alive) s->handle.resume();
  });
}

}  // namespace gbc::sim
