#pragma once

#include <cassert>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {

/// Interruptible executor for one simulated process.
///
/// `compute(d)` models d nanoseconds of pure CPU work that an external agent
/// (the checkpoint controller, standing in for a BLCR signal) can pause and
/// resume at any simulated instant; paused time does not count as progress.
/// The class also records when the process is inside compute vs. inside the
/// messaging library, which the checkpoint layer uses to model how quickly a
/// busy process notices passive-coordination requests (Section 4.4 of the
/// paper: the helper thread bounds that latency; without it the request
/// waits for the next natural entry into the progress engine).
class Pausable {
 public:
  explicit Pausable(Engine& eng)
      : eng_(&eng), unpaused_(eng), progress_(eng) {}
  Pausable(const Pausable&) = delete;
  Pausable& operator=(const Pausable&) = delete;

  // --- pause control (checkpoint freeze) ---
  void pause() {
    if (++pause_depth_ == 1) pause_start_ = eng_->now();
  }
  void resume() {
    assert(pause_depth_ > 0);
    if (--pause_depth_ == 0) {
      paused_accum_ += eng_->now() - pause_start_;
      unpaused_.notify_all();
    }
  }
  bool paused() const noexcept { return pause_depth_ > 0; }

  /// Total paused (frozen) time accumulated so far, including any pause in
  /// progress. This is the per-process checkpoint downtime.
  Time total_paused() const noexcept {
    return paused_accum_ + (paused() ? eng_->now() - pause_start_ : 0);
  }

  // --- execution ---
  /// Burns `duration` of un-paused simulated CPU time.
  Task<void> compute(Time duration) {
    mark_progress();
    in_compute_ = true;
    Time done = 0;
    while (done < duration) {
      while (paused()) co_await unpaused_.wait();
      const Time start = eng_->now();
      const Time paused_at_start = total_paused();
      co_await eng_->delay(duration - done);
      done += (eng_->now() - start) - (total_paused() - paused_at_start);
    }
    in_compute_ = false;
    mark_progress();
  }

  /// Entry guard for library calls: parks while frozen so that a process is
  /// observed at a quiescent point for the duration of a snapshot. Returns a
  /// plain awaiter so the overwhelmingly common un-frozen case costs no
  /// coroutine frame; only an actually-frozen caller starts the slow-path
  /// wait task.
  struct FreezeAwaiter {
    Pausable* self;
    Task<void> slow{};
    bool await_ready() noexcept {
      self->mark_progress();
      return !self->paused();
    }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      slow = self->freeze_wait();
      return slow.await_suspend(h);
    }
    void await_resume() {
      if (slow.valid()) slow.await_resume();
    }
  };
  FreezeAwaiter freeze_point() { return FreezeAwaiter{this}; }

  /// Called by the messaging library whenever this process drives progress
  /// (entering/leaving a call, completing a request).
  void mark_progress() {
    last_progress_ = eng_->now();
    progress_.notify_all();
  }

  bool in_compute() const noexcept { return in_compute_; }

  /// Models the latency until this process services an inter-group
  /// coordination request (paper Sec. 4.4). If the process is inside the
  /// library, service is immediate. If it is computing: with the helper
  /// thread enabled, service happens at the next helper tick (every
  /// `helper_interval` since the last progress) or at compute end, whichever
  /// is first; without it, only when compute ends.
  Task<void> await_service_point(bool async_progress, Time helper_interval) {
    if (!in_compute_) co_return;
    if (async_progress) {
      Time next_tick = last_progress_ + helper_interval;
      while (next_tick <= eng_->now()) next_tick += helper_interval;
      // Wait for a natural progress mark or for the helper tick.
      (void)co_await progress_.wait_for(next_tick - eng_->now());
      co_return;
    }
    // One progress mark = the library had control once = the request is
    // serviced, regardless of whether the process immediately resumes
    // computing. (Looping on in_compute_ here would starve: the app re-enters
    // compute before the scheduled wake runs.)
    co_await progress_.wait();
  }

 private:
  Task<void> freeze_wait() {
    while (paused()) co_await unpaused_.wait();
  }

  Engine* eng_;
  Condition unpaused_;
  Condition progress_;
  int pause_depth_ = 0;
  Time pause_start_ = 0;
  Time paused_accum_ = 0;
  Time last_progress_ = 0;
  bool in_compute_ = false;
};

}  // namespace gbc::sim
