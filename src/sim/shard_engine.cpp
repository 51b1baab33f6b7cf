#include "sim/shard_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "sim/lp_bus.hpp"
#include "sim/pool.hpp"

namespace gbc::sim {

namespace {

/// Addition that saturates at kMaxSimTime instead of overflowing — an idle
/// shard's next event time is kMaxSimTime.
Time sat_add(Time a, Time b) noexcept {
  if (a >= kMaxSimTime - b) return kMaxSimTime;
  return a + b;
}

// Spin budgets of the round barrier, sized in EXPERIMENTS.md ("A
// spin-then-park round barrier"). A worker spins briefly for the next
// round: long enough to span the gap between two back-to-back pooled
// rounds of a small model (about 6 us at 32 ranks), short enough that a
// single-shard stretch parks it instead of burning a CPU. The coordinator
// spins longer for the workers: a pooled round of a 1024-rank model runs
// about 100 us, and a parked coordinator adds a wake-up to every round
// that outlasts the spin.
constexpr std::chrono::microseconds kWorkerSpin{10};
constexpr std::chrono::microseconds kCoordinatorSpin{50};

void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Polls `ready` for at most `budget`; true as soon as it holds.
template <typename Ready>
bool spin_until(Ready ready, std::chrono::microseconds budget) {
  const auto deadline = std::chrono::steady_clock::now() + budget;
  for (;;) {
    for (int i = 0; i < 16; ++i) {
      if (ready()) return true;
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
  }
}

}  // namespace

/// Generation-counted spin-then-park round barrier. The coordinator
/// publishes per-shard horizons (ends_) by bumping `generation`; workers run
/// their statically-assigned runnable shards (shard s belongs to worker
/// s % threads) and count themselves into `arrived`; the coordinator
/// exchanges once every worker has arrived. The generation's release/acquire
/// orders the exchange and the horizons before every worker's round, and the
/// arrival count's orders every shard's appends to the bus's outboxes before
/// the next exchange, so the outboxes need no atomics. The same ordering lets
/// a `runnable == 1` round run a shard inline on the coordinator between
/// pooled rounds.
///
/// Workers wait for the generation on start_cv and the coordinator for the
/// arrivals on done_cv, both through await(), and whoever makes a wait's
/// condition true calls wake() after it.
struct ShardedEngine::Pool {
  // Written by the coordinator once per round, polled by spinning workers;
  // `workers_parked` shares its line because the coordinator reads both.
  alignas(64) std::atomic<std::uint64_t> generation{0};
  std::atomic<int> workers_parked{0};
  // Bumped by each worker once per round, polled by the coordinator; the
  // last arrival reads `coordinator_parked` alongside it.
  alignas(64) std::atomic<int> arrived{0};
  std::atomic<int> coordinator_parked{0};
  // Set before the final generation bump, so a worker sees it on waking.
  bool stop = false;
  std::mutex m;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::vector<std::thread> workers;

  /// Spins until `ready` holds, for at most `budget`, then parks on `cv`.
  /// The waiter announces itself in `parked` under the mutex before its
  /// last check; wake() reads `parked` after the store that made `ready`
  /// hold. Both pairs are seq_cst accesses to two atomics in opposite
  /// orders, so at least one side sees the other: the waiter sees `ready`
  /// and never sleeps, or the waker sees the waiter and takes the mutex,
  /// which the waiter releases only inside wait(). No wake-up is lost, and
  /// a wait that ends while spinning costs no system call.
  template <typename Ready>
  void await(std::condition_variable& cv, std::atomic<int>& parked,
             Ready ready, std::chrono::microseconds budget) {
    if (spin_until(ready, budget)) return;
    std::unique_lock<std::mutex> lk(m);
    parked.fetch_add(1);
    while (!ready()) cv.wait(lk);
    parked.fetch_sub(1, std::memory_order_relaxed);
  }

  void wake(std::condition_variable& cv, const std::atomic<int>& parked) {
    if (parked.load() == 0) return;
    std::lock_guard<std::mutex> lk(m);
    cv.notify_all();
  }
};

ShardedEngine::ShardedEngine(const Options& opts) {
  if (opts.shards < 1) {
    throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  }
  const int S = opts.shards;
  if (S > 1 && opts.lookahead <= 0) {
    throw std::invalid_argument(
        "ShardedEngine: a positive lookahead is required for > 1 shard");
  }
  lookahead_ = opts.lookahead;
  threads_ = std::clamp(opts.threads, 1, S);
  next_.resize(S);
  ends_.assign(S, 0);
  shards_.reserve(S);
  for (int s = 0; s < S; ++s) shards_.push_back(std::make_unique<Shard>());
}

ShardedEngine::~ShardedEngine() {
  stop_pool();
  // Frames allocated on the per-run worker threads and freed on this thread
  // (runnable == 1 rounds, teardown) land in this thread's FramePool cache,
  // which nothing else empties, so every pass would leave it larger. A
  // single-threaded engine allocates and frees here alike and keeps its
  // warm cache.
  if (threads_ > 1) FramePool::trim();
}

void ShardedEngine::run_shard_window(int s) {
  Shard& sh = *shards_[s];
  const std::uint64_t before = sh.eng.events_processed();
  const Time end = ends_[s];
  try {
    // Horizon [next, end): Time is integral, so "strictly below end" is
    // run_until(end - 1). The engine parks with now() == end - 1, safely
    // behind any exchanged arrival (all of which are >= end).
    sh.eng.run_until(end == kMaxSimTime ? kMaxSimTime : end - 1);
  } catch (...) {
    sh.error = std::current_exception();
  }
  sh.stats.events += sh.eng.events_processed() - before;
}

void ShardedEngine::worker_loop(int worker) {
  Pool& p = *pool_;
  const int others = threads_ - 1;
  std::uint64_t seen = 0;
  for (;;) {
    p.await(p.start_cv, p.workers_parked,
            [&] { return p.generation.load() != seen; }, kWorkerSpin);
    // The coordinator waits for every worker before it publishes again, so
    // the generation moved by exactly one.
    ++seen;
    if (p.stop) return;
    for (int s = worker; s < shards(); s += threads_) {
      if (ends_[s] != 0) run_shard_window(s);
    }
    if (p.arrived.fetch_add(1) + 1 == others) {
      p.wake(p.done_cv, p.coordinator_parked);
    }
  }
}

void ShardedEngine::stop_pool() {
  if (!pool_) return;
  // Only called between rounds: every worker is waiting for the next one.
  pool_->stop = true;
  pool_->generation.fetch_add(1);
  pool_->wake(pool_->start_cv, pool_->workers_parked);
  for (auto& w : pool_->workers) w.join();
  pool_.reset();
}

void ShardedEngine::run_rounds(Time cap) {
  const int S = shards();
  for (;;) {
    // Exchange first: anything sent during the previous round (or before
    // the run started) lands in its destination's queue before horizons are
    // computed, so in-flight traffic is fully accounted by next-event times.
    if (bus_ != nullptr) {
      const std::size_t moved = bus_->exchange();
      if (moved > 0) {
        ++windows_;
        cross_events_ += moved;
      }
    }

    // The horizons below need only the two smallest next values and the
    // shard holding the smallest.
    Time tmin = kMaxSimTime;
    Time tsecond = kMaxSimTime;
    int earliest = 0;
    for (int s = 0; s < S; ++s) {
      next_[s] = shards_[s]->eng.next_event_time();
      if (next_[s] < tmin) {
        tsecond = tmin;
        tmin = next_[s];
        earliest = s;
      } else if (next_[s] < tsecond) {
        tsecond = next_[s];
      }
    }
    if (tmin > cap || tmin == kMaxSimTime) {
      std::fill(ends_.begin(), ends_.end(), Time{0});
      return;
    }

    // Earliest-input-time horizons (see the class comment): one hop from
    // the earliest other shard, or a round trip from s itself. The shard
    // holding the globally earliest event always has end > next (L > 0),
    // so each round makes progress.
    const Time cycle = sat_add(lookahead_, lookahead_);
    int runnable = 0;
    int sole = -1;
    for (int s = 0; s < S; ++s) {
      const Time other = s == earliest ? tsecond : tmin;
      Time e = std::min(sat_add(next_[s], cycle), sat_add(other, lookahead_));
      if (cap != kMaxSimTime && e > cap) e = cap + 1;
      if (e > next_[s]) {
        ends_[s] = e;
        ++runnable;
        sole = s;
      } else {
        ends_[s] = 0;
      }
    }
    assert(runnable > 0 && "conservative horizon made no progress");
    ++rounds_;

    if (runnable == 1) {
      // Most rounds of a loosely-coupled model run exactly one shard; skip
      // the pool barrier entirely.
      run_shard_window(sole);
    } else if (threads_ == 1) {
      for (int s = 0; s < S; ++s) {
        if (ends_[s] != 0) run_shard_window(s);
      }
    } else {
      if (!pool_) {
        pool_ = std::make_unique<Pool>();
        pool_->workers.reserve(threads_ - 1);
        for (int w = 1; w < threads_; ++w) {
          pool_->workers.emplace_back([this, w] { worker_loop(w); });
        }
      }
      Pool& p = *pool_;
      const int others = threads_ - 1;
      p.arrived.store(0, std::memory_order_relaxed);
      p.generation.fetch_add(1);
      p.wake(p.start_cv, p.workers_parked);
      // The coordinator doubles as worker 0.
      for (int s = 0; s < S; s += threads_) {
        if (ends_[s] != 0) run_shard_window(s);
      }
      p.await(p.done_cv, p.coordinator_parked,
              [&] { return p.arrived.load() == others; }, kCoordinatorSpin);
    }

    for (auto& sh : shards_) {
      if (sh->error) {
        auto e = sh->error;
        sh->error = nullptr;
        stop_pool();
        std::rethrow_exception(e);
      }
    }
  }
}

void ShardedEngine::run_one_shard(std::optional<Time> cap) {
  ++windows_;
  ++rounds_;
  Shard& sh = *shards_[0];
  const std::uint64_t before = sh.eng.events_processed();
  if (cap) {
    sh.eng.run_until(*cap);
  } else {
    sh.eng.run();
  }
  sh.stats.events += sh.eng.events_processed() - before;
}

void ShardedEngine::run() {
  if (shards() == 1) return run_one_shard(std::nullopt);
  run_rounds(kMaxSimTime);
  stop_pool();
}

void ShardedEngine::run_until(Time t) {
  if (shards() == 1) return run_one_shard(t);
  run_rounds(t);
  stop_pool();
  // Nothing at or before t is pending anywhere; advance every clock to t so
  // callers observe the serial run_until postcondition on each shard.
  for (auto& sh : shards_) sh->eng.run_until(t);
}

void ShardedEngine::abort_all() {
  stop_pool();
  for (auto& sh : shards_) sh->eng.abort_all();
}

std::uint64_t ShardedEngine::total_events() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->stats.events;
  return n;
}

}  // namespace gbc::sim
