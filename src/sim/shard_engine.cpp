#include "sim/shard_engine.hpp"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <exception>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace gbc::sim {

/// Shard-private state. Padded so two worker threads never share a line
/// through the hot seq counter / outbox.
struct alignas(64) ShardedEngine::Shard {
  Engine eng;
  /// Cross-shard posts made since the last barrier, in post (seq) order.
  /// Only this shard's running thread appends; the coordinator drains it at
  /// the barrier, after the pool mutex has parked every producer.
  std::vector<Staged> out;
  std::uint64_t next_seq = 0;
  ShardStats stats;
  std::exception_ptr error;
};

namespace {

/// Addition that saturates at kMaxSimTime instead of overflowing — an idle
/// shard's next event time is kMaxSimTime.
Time sat_add(Time a, Time b) noexcept {
  if (a >= kMaxSimTime - b) return kMaxSimTime;
  return a + b;
}

}  // namespace

/// Generation-counted round barrier: the coordinator publishes per-shard
/// horizons (ends_), workers run their statically-assigned runnable shards
/// (shard s belongs to worker s % threads), and the coordinator waits for
/// all of them before merging outboxes. The mutex hand-off orders every
/// shard's appends to its outbox before the coordinator's drain, and every
/// drain-time injection before the next round's execution, so the outboxes
/// need no atomics; the same hand-off lets a `runnable == 1` round run a
/// shard inline on the coordinator between pooled rounds.
struct ShardedEngine::Pool {
  std::mutex m;
  std::condition_variable start_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  int done = 0;
  bool stop = false;
  std::vector<std::thread> workers;
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
  injected_.assign(S, false);
  shards_.reserve(S);
  for (int s = 0; s < S; ++s) shards_.push_back(std::make_unique<Shard>());
}

ShardedEngine::~ShardedEngine() { stop_pool(); }

Engine& ShardedEngine::shard(int s) { return shards_[s]->eng; }

const ShardStats& ShardedEngine::stats(int s) const {
  return shards_[s]->stats;
}

void ShardedEngine::post(int src, int dst, Time t, InlineFn fn) {
  assert(src >= 0 && src < shards() && dst >= 0 && dst < shards());
  if (src == dst) {
    shards_[src]->eng.schedule_at(t, std::move(fn));
    return;
  }
  Shard& from = *shards_[src];
  assert(t >= from.eng.now() + lookahead_ &&
         "cross-shard post inside the conservative horizon");
  ++from.stats.cross_sent;
  from.out.push_back(Staged{t, static_cast<std::uint32_t>(src),
                            from.next_seq++, static_cast<std::uint32_t>(dst),
                            std::move(fn)});
}

std::size_t ShardedEngine::drain_and_inject() {
  batch_.clear();
  for (auto& sh : shards_) {
    // Most rounds of a loosely-coupled model post nothing.
    if (sh->out.empty()) continue;
    batch_.insert(batch_.end(), std::make_move_iterator(sh->out.begin()),
                  std::make_move_iterator(sh->out.end()));
    sh->out.clear();
  }
  // Deterministic merge order (t, src, seq); a round with <= 1 cross event
  // skips the sort. Keys are unique: seq is per-source-shard monotonic.
  if (batch_.size() > 1) {
    std::sort(batch_.begin(), batch_.end(),
              [](const Staged& a, const Staged& b) {
                if (a.t != b.t) return a.t < b.t;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
  }
  // Inject straight into the destination wheels: every delivery time is at
  // or past the destination's horizon, so nothing lands in a shard's past
  // and no staging heap is needed.
  for (Staged& st : batch_) {
    Engine& de = shards_[st.dst]->eng;
    injected_[st.dst] = true;
    de.schedule_at(st.t, std::move(st.fn));
  }
  return batch_.size();
}

void ShardedEngine::run_shard_window(int s) {
  Shard& sh = *shards_[s];
  const std::uint64_t before = sh.eng.events_processed();
  const Time end = ends_[s];
  try {
    // Horizon [next, end): Time is integral, so "strictly below end" is
    // run_until(end - 1). The engine parks with now() == end - 1, safely
    // behind any merge-injected arrival (all of which are >= end).
    sh.eng.run_until(end == kMaxSimTime ? kMaxSimTime : end - 1);
  } catch (...) {
    sh.error = std::current_exception();
  }
  sh.stats.events += sh.eng.events_processed() - before;
}

void ShardedEngine::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(pool_->m);
      pool_->start_cv.wait(
          lk, [&] { return pool_->stop || pool_->generation != seen; });
      if (pool_->stop) return;
      seen = pool_->generation;
    }
    for (int s = worker; s < shards(); s += threads_) {
      if (ends_[s] != 0) run_shard_window(s);
    }
    {
      std::lock_guard<std::mutex> lk(pool_->m);
      if (++pool_->done == threads_ - 1) pool_->done_cv.notify_one();
    }
  }
}

void ShardedEngine::stop_pool() {
  if (!pool_) return;
  {
    std::lock_guard<std::mutex> lk(pool_->m);
    pool_->stop = true;
  }
  pool_->start_cv.notify_all();
  for (auto& w : pool_->workers) w.join();
  pool_.reset();
}

void ShardedEngine::run_rounds(Time cap) {
  const int S = shards();
  bool first = true;
  for (;;) {
    // Merge first: anything posted during the previous round (or before the
    // run started) lands in the wheels before horizons are computed, so
    // in-flight traffic is fully accounted by next-event times.
    std::fill(injected_.begin(), injected_.end(), false);
    if (drain_and_inject() > 0) ++windows_;

    // A shard's earliest pending time only moves when the shard ran last
    // round (ends_ still holds that round's horizons) or the merge just
    // injected into it; everyone else answers from the previous round's
    // next_. The first round recomputes everything — the caller may have
    // scheduled into any shard since the last run. The horizons below need
    // only the two smallest next values and the shard holding the smallest.
    Time tmin = kMaxSimTime;
    Time tsecond = kMaxSimTime;
    int earliest = 0;
    for (int s = 0; s < S; ++s) {
      if (first || ends_[s] != 0 || injected_[s]) {
        next_[s] = shards_[s]->eng.next_event_time();
      }
      if (next_[s] < tmin) {
        tsecond = tmin;
        tmin = next_[s];
        earliest = s;
      } else if (next_[s] < tsecond) {
        tsecond = next_[s];
      }
    }
    first = false;
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
      {
        std::lock_guard<std::mutex> lk(pool_->m);
        pool_->done = 0;
        ++pool_->generation;
      }
      pool_->start_cv.notify_all();
      // The coordinator doubles as worker 0.
      for (int s = 0; s < S; s += threads_) {
        if (ends_[s] != 0) run_shard_window(s);
      }
      std::unique_lock<std::mutex> lk(pool_->m);
      pool_->done_cv.wait(lk, [&] { return pool_->done == threads_ - 1; });
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
  // Drop in-flight cross traffic: its targets are gone. InlineFn destructors
  // release any captured resources.
  for (auto& sh : shards_) sh->out.clear();
}

std::uint64_t ShardedEngine::total_events() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->stats.events;
  return n;
}

std::uint64_t ShardedEngine::cross_events() const {
  std::uint64_t n = 0;
  for (const auto& sh : shards_) n += sh->stats.cross_sent;
  return n;
}

}  // namespace gbc::sim
