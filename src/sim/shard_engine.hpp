#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.hpp"

namespace gbc::sim {

/// Per-shard execution counters, the basis for the per-shard event split
/// the shard benchmarks report.
struct ShardStats {
  std::uint64_t events = 0;      ///< events this shard dispatched
  std::uint64_t cross_sent = 0;  ///< cross-shard messages it produced
};

/// Conservative-lookahead parallel discrete-event engine.
///
/// One simulation is partitioned into S shards, each owning a full serial
/// Engine — its own timing wheel, slot arena and memory pools — and the
/// model's state is partitioned with them (every logical process belongs to
/// exactly one shard). A cross-shard send is appended to its source shard's
/// outbox instead of the destination wheel; outboxes are drained at the
/// round barrier and merged in deterministic (t, src_shard, seq) order, so
/// serial and S-shard runs are event-for-event identical at any thread
/// count.
///
/// ## Horizons: one uniform lookahead
///
/// Every cross-shard message takes at least the lookahead L (the full stack
/// sets it to the bus floor `NetConfig::floor_hop()`). At every round each
/// shard's horizon is the earliest-input-time bound
///
///     end[s] = min( next(s) + 2L, min over x != s of next(x) + L )
///
/// where next(x) is x's earliest pending event: no message can arrive at s
/// before end[s] that is not already in s's wheel. The 2L term is what
/// makes the naive "min over other shards' next + L" bound safe: an event
/// on s itself can round-trip through an idle shard and re-enter s's near
/// future, so s is bounded by its own shortest cycle. Only the two smallest
/// next values enter the formula, so a round's horizons cost O(S). A shard
/// with next(s) >= end[s] simply sits the round out — its wheel is
/// untouched, so its next-event query stays O(1) (memoized in the wheel).
///
/// ## Windows vs rounds: empty-window fusion
///
/// A *round* is one horizon computation plus the execution it permits. A
/// *window* only ends when a round actually produced cross-shard traffic:
/// the outboxes are merged, destination sequence numbers are assigned in
/// (t, src, seq) order, and `windows()` increments. Rounds in which no
/// cross-shard traffic is in flight fuse into the current window —
/// execution advances straight to the next globally pending work with no
/// merge and no sort. A workload whose traffic is mostly shard-local pays
/// one merge per actual exchange, not one per lookahead quantum of
/// simulated time.
///
/// Determinism does NOT depend on the thread count or the shard->thread
/// assignment; it does depend on the shard *count* only through the model's
/// LP discipline. The full protocol stack is disciplined: sim::LpBus
/// delivers every cross-LP message through a settle sweep sorted by
/// (dst LP, origin LP, origin seq), so its runs are shard-count-invariant
/// too.
class ShardedEngine {
 public:
  struct Options {
    int shards = 1;
    /// Minimum latency of every cross-shard post; must be > 0 when
    /// shards > 1.
    Time lookahead = 0;
    /// Worker threads to run rounds on, clamped to [1, shards]. 1 runs all
    /// shards inline on the calling thread (identical results, no threads).
    /// Callers should size this via harness::ThreadBudget so sweeps and
    /// sharded runs never oversubscribe the machine together.
    int threads = 1;
  };

  explicit ShardedEngine(const Options& opts);
  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;
  ~ShardedEngine();

  int shards() const noexcept { return static_cast<int>(shards_.size()); }
  int threads() const noexcept { return threads_; }
  Engine& shard(int s);

  /// Cross-shard schedule: from model code running on shard `src`, schedule
  /// fn on shard `dst` at absolute simulated time t. Requires
  /// t >= shard(src).now() + lookahead (the conservative contract;
  /// asserted) — use a same-shard schedule_at for anything closer, which
  /// post() degrades to when src == dst.
  void post(int src, int dst, Time t, InlineFn fn);

  /// Runs rounds until every shard's queue and every outbox drain.
  /// Rethrows the first simulated-process error (lowest shard index).
  void run();
  /// Runs every event with timestamp <= t, then advances every shard's
  /// clock to t (the sharded analogue of Engine::run_until).
  void run_until(Time t);
  /// Aborts every shard's engine (waking suspended coroutines with
  /// SimAborted) and discards all in-flight cross-shard traffic.
  void abort_all();

  const ShardStats& stats(int s) const;
  std::uint64_t total_events() const;
  /// Synchronization windows: barriers at which cross-shard traffic was
  /// actually merged. Rounds without traffic fuse and are not counted.
  std::uint64_t windows() const noexcept { return windows_; }
  /// Horizon-advance rounds, including fused (traffic-free) ones.
  std::uint64_t rounds() const noexcept { return rounds_; }
  /// Total cross-shard messages merged so far.
  std::uint64_t cross_events() const;

 private:
  struct Shard;

  /// One shard: the serial engine's own run()/run_until(*cap) loop, so its
  /// clock semantics hold exactly.
  void run_one_shard(std::optional<Time> cap);
  void run_shard_window(int s);
  void worker_loop(int worker);
  void run_rounds(Time cap);
  /// Moves every outbox into batch_, merges, injects. Returns the number
  /// of cross events injected.
  std::size_t drain_and_inject();
  void stop_pool();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Time> next_;    // per-round scratch: earliest pending event
  std::vector<Time> ends_;    // per-round horizon; 0 = sits this round out
  std::vector<char> injected_;  // per-round scratch: merge touched this shard
  Time lookahead_ = 0;
  int threads_ = 1;
  std::uint64_t windows_ = 0;
  std::uint64_t rounds_ = 0;

  // One cross-shard post. `seq` is per-source-shard monotonic, so
  // (t, src, seq) totally orders every cross-shard message — the merge key
  // that keeps sharded runs deterministic regardless of thread timing.
  struct Staged {
    Time t;
    std::uint32_t src;
    std::uint64_t seq;
    std::uint32_t dst;
    InlineFn fn;
  };
  // Barrier-drain scratch: every outbox's posts, merged by (t, src, seq)
  // with a single sort (skipped when <= 1 event).
  std::vector<Staged> batch_;

  // Window barrier state for the per-run worker pool (see shard_engine.cpp).
  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace gbc::sim
