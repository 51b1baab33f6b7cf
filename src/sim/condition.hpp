#pragma once

#include <coroutine>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {

/// Level-less condition variable for coroutines: waiters park until a notify.
/// As with real condition variables, callers must re-check their predicate in
/// a loop — a notify wakes waiters but proves nothing about state.
class Condition {
 public:
  explicit Condition(Engine& eng) : eng_(&eng) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  struct WaitAwaiter {
    Condition& cv;
    std::shared_ptr<SuspendState> state;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) {
      state = cv.eng_->make_suspend_state();
      state->handle = h;
      cv.eng_->register_suspension(state);
      cv.waiters_.push_back(state);
    }
    void await_resume() {
      if (state) state->alive = false;
      if (cv.eng_->aborted()) throw SimAborted{};
    }
  };

  /// Awaitable that parks until the next notify_all()/notify_one().
  WaitAwaiter wait() { return WaitAwaiter{*this, nullptr}; }

  /// Waits until notified or until `timeout` elapses; co_awaits to true when
  /// notified, false on timeout.
  Task<bool> wait_for(Time timeout);

  /// Repeatedly waits until pred() holds (checked before the first wait too).
  template <typename Pred>
  Task<void> wait_until(Pred pred) {
    while (!pred()) co_await wait();
  }

  void notify_all() {
    if (waiters_.empty()) return;
    auto snapshot = std::move(waiters_);
    waiters_.clear();
    // The snapshot's references are dead after this loop, so hand each one
    // to the engine by move: the wake callback inherits the reference
    // instead of paying an atomic refcount bump per waiter.
    for (auto& s : snapshot) eng_->wake(std::move(s));
  }

  /// Resumes every waiter *inline*, without the usual schedule_now hop.
  /// Only for callers already running in a top-level event context (the LP
  /// bus settle sweep) where re-entering the waiters immediately is safe:
  /// the waiter's continuation runs to its next suspension inside this
  /// call. Saves one queued event per waiter on the message hot path.
  void notify_all_inline() {
    if (waiters_.empty()) return;
    auto snapshot = std::move(waiters_);
    waiters_.clear();
    for (auto& s : snapshot) {
      if (!s->settled && s->alive) {
        s->settled = true;
        s->handle.resume();
      }
    }
  }

  void notify_one() {
    while (!waiters_.empty()) {
      auto s = std::move(waiters_.front());
      waiters_.erase(waiters_.begin());
      if (!s->settled && s->alive) {
        eng_->wake(std::move(s));
        return;
      }
    }
  }

  Engine& engine() const noexcept { return *eng_; }

 private:
  Engine* eng_;
  std::vector<std::shared_ptr<SuspendState>> waiters_;
};

}  // namespace gbc::sim
