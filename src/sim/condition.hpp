#pragma once

#include <coroutine>
#include <utility>

#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {

/// Level-less condition variable for coroutines: waiters park until a notify.
/// As with real condition variables, callers must re-check their predicate in
/// a loop — a notify wakes waiters but proves nothing about state.
///
/// The FIFO of waiters is intrusive: each waiter's Suspension record lives
/// in its awaiter, inside the waiting frame, so a wait allocates nothing and
/// a Condition holds no storage of its own. A waiter that leaves early (a
/// wait_for timeout, an abort) unlinks itself, so a Condition must outlive
/// every waiter that will still resume.
class Condition {
 public:
  explicit Condition(Engine& eng) : eng_(&eng) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Awaitable that parks until the next notify_all()/notify_one().
  struct WaitAwaiter {
    explicit WaitAwaiter(Condition& c) noexcept : cv(c) {}
    WaitAwaiter(const WaitAwaiter&) = delete;
    WaitAwaiter& operator=(const WaitAwaiter&) = delete;
    ~WaitAwaiter() { cv.leave(rec); }

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { cv.enqueue(rec, h); }
    void await_resume() const {
      if (cv.eng_->aborted()) throw SimAborted{};
    }

    Condition& cv;
    Suspension rec;
  };

  /// Waits until notified or until `timeout` elapses; resumes with true when
  /// notified, false on timeout. A notify that wins turns the queued timer
  /// into a no-op event, so the timer still fires at its instant.
  struct WaitForAwaiter : WaitAwaiter {
    WaitForAwaiter(Condition& c, Time t) noexcept
        : WaitAwaiter(c), timeout(t) {}
    void await_suspend(std::coroutine_handle<> h);
    bool await_resume() const {
      WaitAwaiter::await_resume();
      return !rec.timed_out;
    }

    Time timeout;
  };

  WaitAwaiter wait() { return WaitAwaiter{*this}; }
  WaitForAwaiter wait_for(Time timeout) {
    return WaitForAwaiter{*this, timeout};
  }

  /// Repeatedly waits until pred() holds (checked before the first wait too).
  template <typename Pred>
  Task<void> wait_until(Pred pred) {
    while (!pred()) co_await wait();
  }

  void notify_all() {
    while (Suspension* s = take_front(waiters_, *eng_)) eng_->wake(*s);
  }

  /// Resumes every waiter *inline*, without the usual schedule_now hop.
  /// Only for callers already running in a top-level event context (the LP
  /// bus settle sweep) where re-entering the waiters immediately is safe:
  /// the waiter's continuation runs to its next suspension inside this
  /// call. Saves one queued event per waiter on the message hot path.
  void notify_all_inline() {
    // Detach the queue first: a resumed waiter that waits again joins the
    // fresh queue and is not woken by this call, and one that destroys
    // this condition (a request's last reference dropped) leaves the
    // detached waiters intact. Nothing below touches *this after a resume.
    Engine& eng = *eng_;
    Waiters batch = std::exchange(waiters_, Waiters{});
    while (Suspension* s = take_front(batch, eng)) s->handle.resume();
  }

  void notify_one() {
    if (Suspension* s = take_front(waiters_, *eng_)) eng_->wake(*s);
  }

  Engine& engine() const noexcept { return *eng_; }

 private:
  void enqueue(Suspension& s, std::coroutine_handle<> h) {
    s.handle = h;
    eng_->park(s);
    waiters_.push_back(s);
  }

  using Waiters = SuspensionList<&Suspension::queued>;

  /// Dequeues the oldest waiter for a wake, neutralising its wait_for timer.
  static Suspension* take_front(Waiters& q, Engine& eng) {
    Suspension* s = q.pop_front();
    if (s != nullptr && s->timer != Suspension::kNoTimer) {
      eng.disarm(s->timer);
      s->timer = Suspension::kNoTimer;
    }
    return s;
  }

  /// Called as a waiter's awaiter dies: after a wake it only leaves the
  /// engine's abort list; after an abort it also leaves this FIFO.
  void leave(Suspension& s) noexcept {
    if (s.queued.linked) waiters_.erase(s);
    eng_->unpark(s);
  }

  Engine* eng_;
  Waiters waiters_;
};

}  // namespace gbc::sim
