#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <vector>

#include "sim/engine.hpp"

namespace gbc::sim {

class LpBus;

/// Per-shard execution counters, the basis for the per-shard event split
/// the shard benchmarks report.
struct ShardStats {
  std::uint64_t events = 0;  ///< events this shard dispatched
};

/// Conservative-lookahead parallel discrete-event engine.
///
/// One simulation is partitioned into S shards, each owning a full serial
/// Engine — its own event heap and callable slots — and the
/// model's state is partitioned with them (every logical process belongs to
/// exactly one shard). The engine only schedules: it computes horizons, runs
/// the shards on its worker pool, and at each round barrier hands control to
/// the sim::LpBus registered with it, which owns all cross-shard traffic and
/// moves every message staged during the round into its destination's
/// settle bucket.
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
/// before end[s] that is not already in s's queue. The 2L term is what
/// makes the naive "min over other shards' next + L" bound safe: an event
/// on s itself can round-trip through an idle shard and re-enter s's near
/// future, so s is bounded by its own shortest cycle. Every round re-reads
/// every shard's next(s) — the front of its event heap, O(1) — and only the
/// two smallest next values enter the formula, so a round's horizons cost
/// O(S). A shard with next(s) >= end[s] simply sits the round out.
///
/// ## Windows vs rounds: empty-window fusion
///
/// A *round* is one horizon computation plus the execution it permits. A
/// *window* only ends when a round actually produced cross-shard traffic:
/// the bus's exchange moved at least one message and `windows()`
/// increments. Rounds in which no cross-shard traffic is in flight fuse
/// into the current window — execution advances straight to the next
/// globally pending work. A workload whose traffic is mostly shard-local
/// pays one exchange per actual hand-off, not one per lookahead quantum of
/// simulated time.
///
/// Determinism does NOT depend on the thread count or the shard->thread
/// assignment; it does depend on the shard *count* only through the model's
/// LP discipline. sim::LpBus delivers every cross-LP message through a
/// settle sweep sorted by (dst LP, origin LP, origin seq), so the order in
/// which an exchange moves messages is unobservable and runs are
/// shard-count-invariant.
class ShardedEngine {
 public:
  struct Options {
    int shards = 1;
    /// Minimum latency of every cross-shard message; must be > 0 when
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
  Engine& shard(int s) { return shards_[s]->eng; }

  /// Runs rounds until every shard's queue and the bus's outboxes drain.
  /// Rethrows the first simulated-process error (lowest shard index).
  void run();
  /// Runs every event with timestamp <= t, then advances every shard's
  /// clock to t (the sharded analogue of Engine::run_until).
  void run_until(Time t);
  /// Aborts every shard's engine (waking suspended coroutines with
  /// SimAborted) and drops their queues. Cross-shard traffic lives in the
  /// bus; LpBus::clear() drops it.
  void abort_all();

  const ShardStats& stats(int s) const { return shards_[s]->stats; }
  std::uint64_t total_events() const;
  /// Synchronization windows: barriers at which cross-shard traffic was
  /// actually exchanged. Rounds without traffic fuse and are not counted.
  std::uint64_t windows() const noexcept { return windows_; }
  /// Horizon-advance rounds, including fused (traffic-free) ones.
  std::uint64_t rounds() const noexcept { return rounds_; }
  /// Total cross-shard messages exchanged so far.
  std::uint64_t cross_events() const noexcept { return cross_events_; }

 private:
  // The bus registers itself here (one per engine) and is called at every
  // round barrier.
  friend class LpBus;

  /// Shard-private state. Padded so two worker threads never share a line
  /// through the hot stats counter.
  struct alignas(64) Shard {
    Engine eng;
    ShardStats stats;
    std::exception_ptr error;
  };

  /// One shard: the serial engine's own run()/run_until(*cap) loop, so its
  /// clock semantics hold exactly.
  void run_one_shard(std::optional<Time> cap);
  void run_shard_window(int s);
  void worker_loop(int worker);
  void run_rounds(Time cap);
  void stop_pool();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Time> next_;    // per-round scratch: earliest pending event
  std::vector<Time> ends_;    // per-round horizon; 0 = sits this round out
  Time lookahead_ = 0;
  int threads_ = 1;
  std::uint64_t windows_ = 0;
  std::uint64_t rounds_ = 0;
  std::uint64_t cross_events_ = 0;
  LpBus* bus_ = nullptr;

  // Window barrier state for the per-run worker pool (see shard_engine.cpp).
  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace gbc::sim
