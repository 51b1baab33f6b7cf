#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {

// Shared suspension record. Every leaf awaitable (timer wait, condition wait)
// owns one of these; the engine keeps a weak reference so abort_all() can
// wake every parked coroutine with the abort flag raised.
struct SuspendState {
  std::coroutine_handle<> handle{};
  bool settled = false;  // a wake has been delivered (or is scheduled)
  bool alive = true;     // awaiter frame still exists
};

/// Deterministic single-threaded discrete-event engine. Events fire in
/// strict (t, seq) order: equal timestamps fire in schedule order (FIFO),
/// except that back-band events (schedule_at_back) fire after every normal
/// event at their instant. Runs are therefore fully reproducible.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  ~Engine();

  Time now() const noexcept { return now_; }
  bool aborted() const noexcept { return aborted_; }

  /// Schedules fn at absolute simulated time t (must be >= now()).
  void schedule_at(Time t, InlineFn fn);
  /// Schedules fn after the given delay.
  void schedule_after(Time delay, InlineFn fn);
  /// Schedules fn at the current time, after already-queued same-time events.
  void schedule_now(InlineFn fn) { schedule_at(now_, std::move(fn)); }

  /// Sequence-number band for end-of-timestamp events: schedule_at_back
  /// ORs this bit into the event's tie-break key, so the event runs after
  /// every normally-scheduled event at the same timestamp regardless of
  /// when it was created. Back-band events keep creation order among
  /// themselves (the low bits still come from the shared counter).
  static constexpr std::uint64_t kBackBand = std::uint64_t{1} << 63;
  /// Schedules fn at time t, *after* every event scheduled at t through
  /// schedule_at/schedule_now — the LP bus settle sweep runs here so every
  /// same-instant arrival is already queued when deliveries sort.
  void schedule_at_back(Time t, InlineFn fn);

  /// Starts a detached simulated process. The body runs eagerly until its
  /// first suspension. Exceptions other than SimAborted are captured and
  /// rethrown from run().
  void spawn(Task<void> body);

  /// Runs until the event queue drains. Rethrows the first process error.
  void run();
  /// Runs events with timestamp <= t, then sets now() = t.
  void run_until(Time t);
  /// Wakes every suspended coroutine with SimAborted so frames unwind, then
  /// drains the queue. Used for mid-run teardown (failure injection).
  void abort_all();

  /// Absolute time of the earliest queued event, or kMaxSimTime when the
  /// queue is empty. The shard coordinator uses this to place the next
  /// conservative window; a serial run never needs it.
  Time next_event_time() const noexcept {
    return queue_.empty() ? kMaxSimTime : queue_.peek().t;
  }
  bool queue_empty() const noexcept { return queue_.empty(); }

  int live_processes() const noexcept { return live_; }
  /// Total events dispatched by run()/run_until() so far; the basis for
  /// simulated-events-per-second throughput reporting.
  std::uint64_t events_processed() const noexcept { return events_; }

  // Internal hooks used by the detached process driver; not for users.
  void internal_process_error(std::exception_ptr e) { errors_.push_back(e); }
  void internal_process_exit() { --live_; }

  // --- used by awaitable primitives ---
  void register_suspension(const std::shared_ptr<SuspendState>& s);
  std::shared_ptr<SuspendState> make_suspend_state() {
    return std::make_shared<SuspendState>();
  }
  /// Schedules the resume of a settled suspension at the current time.
  void wake(const std::shared_ptr<SuspendState>& s) { wake_impl(s); }
  /// Move form: steals the caller's reference instead of bumping the count
  /// (the wake callback is what keeps the state alive).
  void wake(std::shared_ptr<SuspendState>&& s) { wake_impl(std::move(s)); }

  /// Awaitable: suspends the current coroutine for `delay` sim-time.
  auto delay(Time d) { return DelayAwaiter{*this, d, nullptr}; }
  auto delay_until(Time t) { return DelayAwaiter{*this, t - now_, nullptr}; }

  struct DelayAwaiter {
    Engine& eng;
    Time delay;
    std::shared_ptr<SuspendState> state;

    bool await_ready() const noexcept {
      return delay <= 0 && !eng.aborted_;
    }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() {
      if (state) state->alive = false;
      if (eng.aborted_) throw SimAborted{};
    }
  };

 private:
  template <typename Ptr>
  void wake_impl(Ptr&& s) {
    if (s->settled) return;
    s->settled = true;
    schedule_now([s = std::forward<Ptr>(s)] {
      if (s->alive) s->handle.resume();
    });
  }

  void step(const QueuedEvent& ev);
  std::uint32_t acquire_slot(InlineFn fn);

  // The heap sifts trivially-copyable 24-byte records; the callables live
  // in stable recycled slots on the side, so a steady-state simulation stops
  // allocating per event entirely.
  EventQueue queue_;
  std::vector<InlineFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::weak_ptr<SuspendState>> suspensions_;
  std::vector<std::exception_ptr> errors_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_ = 0;
  int live_ = 0;
  bool aborted_ = false;
  int prune_countdown_ = 256;
};

}  // namespace gbc::sim
