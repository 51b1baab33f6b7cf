#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/engine.hpp"
#include "sim/mailbox.hpp"

namespace gbc::sim {

/// Per-shard execution counters, the basis for the events-per-window load
/// balance statistics the shard benchmarks report.
struct ShardStats {
  std::uint64_t events = 0;            ///< events this shard dispatched
  std::uint64_t busy_windows = 0;      ///< rounds in which it dispatched any
  std::uint64_t max_window_events = 0; ///< largest single-round burst
  std::uint64_t cross_sent = 0;        ///< cross-shard messages it produced
};

/// Conservative-lookahead parallel discrete-event engine.
///
/// One simulation is partitioned into S shards, each owning a full serial
/// Engine — its own timing wheel, slot arena and memory pools — and the
/// model's state is partitioned with them (every logical process belongs to
/// exactly one shard). Cross-shard sends flow through lock-free SPSC
/// mailboxes instead of the destination wheel; mailboxes are drained at
/// synchronization barriers and merged in deterministic (t, src_shard, seq)
/// order, so serial and S-shard runs are event-for-event identical at any
/// thread count.
///
/// ## Horizons: the per-shard-pair lookahead matrix
///
/// How far a shard may run between barriers is governed by a per-shard-pair
/// lookahead matrix L: L[src][dst] is the minimum latency of any message the
/// model will ever post from src to dst (kNoLink if that pair never
/// exchanges messages). From it the engine precomputes `cdist`, the
/// all-pairs shortest path over L *including cycle lengths on the diagonal*
/// (cdist[s][s] = the shortest cycle through s). At every round each
/// shard's horizon is the earliest-input-time bound
///
///     end[s] = min over all shards x of ( next(x) + cdist[x][s] )
///
/// where next(x) is x's earliest pending event: no message can arrive at s
/// before end[s] that is not already in s's wheel. The diagonal term is
/// what makes the naive "min over other shards' next + direct latency"
/// bound safe: an event on s itself can round-trip through an idle shard
/// and re-enter s's near future, so s is bounded by its own shortest cycle.
/// A shard with next(s) >= end[s] simply sits the round out — its wheel is
/// untouched, so its next-event query stays O(1) (memoized in the wheel).
///
/// ## Windows vs rounds: empty-window fusion
///
/// A *round* is one horizon computation plus the execution it permits. A
/// *window* only ends when a round actually produced cross-shard traffic:
/// the mailboxes are merged, destination sequence numbers are assigned in
/// (t, src, seq) order, and `windows()` increments. Rounds in which no
/// mailbox traffic is in flight fuse into the current window — execution
/// advances straight to the next globally pending work with no merge, no
/// sort and no staging heap. This is what removes the per-lookahead window
/// tax the lockstep design paid: a workload whose traffic is mostly
/// shard-local pays one merge per actual exchange, not one per lookahead
/// quantum of simulated time.
///
/// Mailbox drains are batched: each barrier collects every in-flight cross
/// event into one vector and sorts it once — and a round with <= 1 cross
/// event skips the merge-sort entirely.
///
/// Determinism does NOT depend on the thread count or the shard->thread
/// assignment; it does depend on the shard *count* only through the model's
/// LP discipline. The full protocol stack is disciplined: sim::LpBus
/// delivers every cross-LP message through a settle sweep sorted by
/// (dst LP, origin LP, origin seq), so its runs are shard-count-invariant
/// too.
class ShardedEngine {
 public:
  /// Matrix entry for "these two shards never exchange messages".
  static constexpr Time kNoLink = kMaxSimTime;

  struct Options {
    int shards = 1;
    /// Uniform conservative horizon, used for every shard pair when
    /// `lookahead_matrix` is empty; must be > 0 when shards > 1.
    Time lookahead = 0;
    /// Optional per-shard-pair minimum message latency, row-major
    /// shards x shards: entry [src * shards + dst] is the minimum latency
    /// of any cross-shard post src -> dst, or kNoLink when that pair never
    /// exchanges messages. Diagonal entries are ignored. Every finite entry
    /// must be > 0. The tighter (sparser, larger) this matrix, the wider
    /// the conservative horizons.
    std::vector<Time> lookahead_matrix;
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
  /// Minimum finite cross-shard lookahead (the scalar the lockstep design
  /// used everywhere).
  Time lookahead() const noexcept { return lookahead_; }
  Engine& shard(int s);

  /// Cross-shard schedule: from model code running on shard `src`, schedule
  /// fn on shard `dst` at absolute simulated time t. Requires
  /// t >= shard(src).now() + L[src][dst] (the conservative contract;
  /// asserted) — use a same-shard schedule_at for anything closer, which
  /// post() degrades to when src == dst.
  void post(int src, int dst, Time t, InlineFn fn);

  /// Runs rounds until every shard's queue and every mailbox drain.
  /// Rethrows the first simulated-process error (lowest shard index).
  void run();
  /// Runs every event with timestamp <= t, then advances every shard's
  /// clock to t (the sharded analogue of Engine::run_until).
  void run_until(Time t);
  /// Aborts every shard's engine (waking suspended coroutines with
  /// SimAborted) and discards all in-flight mailbox traffic.
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
  /// Load balance across shards: max per-shard events / mean per-shard
  /// events. 1.0 = perfectly balanced.
  double window_balance() const;

 private:
  struct Shard;

  void run_shard_window(int s);
  void worker_loop(int worker);
  void run_rounds(Time cap);
  /// Drains every mailbox into batch_, merges, injects. Returns the number
  /// of cross events injected.
  std::size_t drain_and_inject();
  void stop_pool();

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<Time> matrix_;  // row-major L[src * S + dst]
  std::vector<Time> cdist_;   // APSP closure of matrix_, cycles on diagonal
  std::vector<Time> next_;    // per-round scratch: earliest pending event
  std::vector<Time> ends_;    // per-round horizon; 0 = sits this round out
  std::vector<std::uint64_t> drained_;  // cross posts already merged, per src
  std::vector<char> injected_;  // per-round scratch: merge touched this shard
  Time lookahead_ = 0;
  int threads_ = 1;
  std::uint64_t windows_ = 0;
  std::uint64_t rounds_ = 0;

  // Barrier-drain scratch: all in-flight cross events, merged by
  // (t, src, seq) with a single sort (skipped when <= 1 event).
  struct Staged {
    Time t;
    std::uint32_t src;
    std::uint64_t seq;
    std::uint32_t dst;
    InlineFn fn;
  };
  std::vector<Staged> batch_;

  // Window barrier state for the per-run worker pool (see shard_engine.cpp).
  struct Pool;
  std::unique_ptr<Pool> pool_;
};

}  // namespace gbc::sim
