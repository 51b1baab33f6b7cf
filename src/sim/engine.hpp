#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {

/// Suspension record of one parked coroutine. It lives inside the awaiter
/// that parked it, which sits in the suspended coroutine's frame, so parking
/// allocates nothing. While parked, the record is listed on its engine's
/// abort list (so abort_all() can wake it with the abort flag raised); a
/// condition wait also queues it on the condition's FIFO of waiters. A
/// record never leaves its engine's shard, so every link is a plain pointer.
struct Suspension {
  struct Links {
    Suspension* prev = nullptr;
    Suspension* next = nullptr;
    bool linked = false;
  };
  static constexpr std::uint32_t kNoTimer = ~std::uint32_t{0};

  std::coroutine_handle<> handle{};
  Links parked;  // the engine's abort list
  Links queued;  // the condition's FIFO of waiters
  std::uint32_t timer = kNoTimer;  // event slot of a pending wait_for timer
  bool timed_out = false;          // a wait_for's timer won the race
};

/// Intrusive FIFO of suspension records through one of their Links fields.
template <Suspension::Links Suspension::*L>
class SuspensionList {
 public:
  void push_back(Suspension& s) noexcept {
    Suspension::Links& l = s.*L;
    l.prev = tail_;
    l.next = nullptr;
    l.linked = true;
    (tail_ ? (tail_->*L).next : head_) = &s;
    tail_ = &s;
  }
  void erase(Suspension& s) noexcept {
    Suspension::Links& l = s.*L;
    (l.prev ? (l.prev->*L).next : head_) = l.next;
    (l.next ? (l.next->*L).prev : tail_) = l.prev;
    l.linked = false;
  }
  /// Unlinks and returns the oldest record, or nullptr when empty.
  Suspension* pop_front() noexcept {
    Suspension* s = head_;
    if (s != nullptr) erase(*s);
    return s;
  }

 private:
  Suspension* head_ = nullptr;
  Suspension* tail_ = nullptr;
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
  /// Lists a suspended coroutine's record for abort_all().
  void park(Suspension& s) noexcept { parked_.push_back(s); }
  /// Takes a resumed record off the abort list (abort_all() already has).
  void unpark(Suspension& s) noexcept {
    if (s.parked.linked) parked_.erase(s);
  }
  /// Schedules the resume of a parked record at the current time.
  void wake(Suspension& s) {
    schedule_now([p = &s] { p->handle.resume(); });
  }
  /// Schedules fn after `delay` and returns its event slot for disarm().
  std::uint32_t arm(Time delay, InlineFn fn);
  /// Turns the queued, not yet fired event in `slot` (from arm()) into a
  /// no-op. It still fires, so event counts and now() do not move.
  void disarm(std::uint32_t slot) { slots_[slot] = InlineFn([] {}); }

  /// Awaitable: suspends the current coroutine for `delay` sim-time.
  auto delay(Time d) { return DelayAwaiter{*this, d}; }
  auto delay_until(Time t) { return DelayAwaiter{*this, t - now_}; }

  struct DelayAwaiter {
    DelayAwaiter(Engine& e, Time d) noexcept : eng(e), delay(d) {}
    DelayAwaiter(const DelayAwaiter&) = delete;
    DelayAwaiter& operator=(const DelayAwaiter&) = delete;
    ~DelayAwaiter() { eng.unpark(rec); }

    bool await_ready() const noexcept {
      return delay <= 0 && !eng.aborted_;
    }
    void await_suspend(std::coroutine_handle<> h);
    void await_resume() const {
      if (eng.aborted_) throw SimAborted{};
    }

    Engine& eng;
    Time delay;
    Suspension rec;
  };

 private:
  std::uint32_t push(Time t, std::uint64_t seq, InlineFn fn);
  void step(const QueuedEvent& ev);
  std::uint32_t acquire_slot(InlineFn fn);

  // The heap sifts trivially-copyable 24-byte records; the callables live
  // in stable recycled slots on the side, so a steady-state simulation stops
  // allocating per event entirely.
  EventQueue queue_;
  std::vector<InlineFn> slots_;
  std::vector<std::uint32_t> free_slots_;
  SuspensionList<&Suspension::parked> parked_;  // every parked coroutine
  std::vector<std::exception_ptr> errors_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_ = 0;
  int live_ = 0;
  bool aborted_ = false;
};

}  // namespace gbc::sim
