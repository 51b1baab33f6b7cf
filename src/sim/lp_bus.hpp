#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"
#include "sim/shard_engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace gbc::sim {

/// Which shard owns logical process `lp` when `nlps` LPs are split across
/// `shards` contiguous blocks (DESIGN.md §13): rank r lives on shard r*S/n,
/// and the root service LP (id = nlps) is pinned to shard 0.
constexpr int lp_owner_shard(int lp, int nlps, int shards) {
  return static_cast<int>(static_cast<std::int64_t>(lp) * shards / nlps);
}

/// Message bus between logical processes (LPs) of one simulated cluster.
///
/// LP ids 0..nranks-1 are the MPI ranks; id nranks is the *root service LP*
/// (inter-group checkpoint sequencing, connection manager, shared PFS),
/// pinned to shard 0. Every cross-LP interaction — wire flights, control
/// messages, RPCs — flows through here with latency >= `floor()`, the
/// ShardedEngine's uniform lookahead, so its conservative horizons
/// stay valid and no LP ever reaches into another LP's state directly.
///
/// ## Determinism: the settle-sweep discipline
///
/// The bus never hands a message straight to model code: every delivery
/// lands in its destination shard's *settle bucket* for the delivery time,
/// and one back-band sweep event per (shard, t) — scheduled after every
/// normal event at t (Engine::schedule_at_back) — sorts the bucket by
/// (dst LP, origin LP, per-origin sequence) and runs it. The key depends
/// only on the model, never on the shard layout, so the delivery order each
/// LP observes is canonical at any shard/thread count, and the order in
/// which entries reach a bucket does not matter.
///
/// The bus is the one owner of cross-shard traffic. A send to an LP on the
/// sender's own shard goes straight into the bucket at send time; one to
/// another shard is staged in the sending shard's outbox, and at the next
/// round barrier ShardedEngine calls exchange(), which moves every staged
/// entry into its destination's bucket. Either way the entry is in place
/// strictly before its delivery time executes: every message carries
/// latency >= floor() > 0, and a cross-shard delivery lies at or past its
/// destination's horizon.
///
/// Handlers run inside the sweep only touch their own LP's state (the LP
/// discipline), so the interleaving of *different* LPs' handlers at one
/// (shard, t) — the only thing the layout can change — is unobservable.
/// With one shard every send stays on its shard, so serial and sharded runs
/// deliver in the same canonical order.
class LpBus {
 public:
  /// Rank LPs in contiguous blocks across se.shards(). Registers the bus
  /// with `se`, which calls it at every round barrier. With more than one
  /// shard the floor must cover the engine's lookahead (the conservative
  /// horizons assume every cross-shard message takes at least that long);
  /// throws std::invalid_argument otherwise.
  LpBus(ShardedEngine& se, int nranks, Time floor)
      : se_(se),
        nranks_(nranks),
        floor_(floor),
        shards_(static_cast<std::size_t>(se.shards())),
        owner_(static_cast<std::size_t>(nranks) + 1, 0),
        oseq_(static_cast<std::size_t>(nranks) + 1),
        delivered_(static_cast<std::size_t>(nranks) + 1, 0) {
    assert(floor_ > 0 && "LpBus floor must be positive");
    if (se.shards() > 1 && floor_ < se.lookahead_) {
      throw std::invalid_argument(
          "LpBus: the floor must be >= the engine's lookahead");
    }
    for (int lp = 0; lp < nranks; ++lp) {
      owner_[static_cast<std::size_t>(lp)] =
          lp_owner_shard(lp, nranks, se.shards());
    }
    assert(se.bus_ == nullptr && "one LpBus per ShardedEngine");
    se.bus_ = this;
  }
  ~LpBus() { se_.bus_ = nullptr; }

  LpBus(const LpBus&) = delete;
  LpBus& operator=(const LpBus&) = delete;

  int nranks() const noexcept { return nranks_; }
  /// The root service LP: connection manager, shared PFS, inter-group
  /// checkpoint sequencing and ledger commit. Group coordinators run on the
  /// home LP of their group's lowest rank, and each node's staging-tier
  /// partition on its own rank LP (DESIGN.md §15).
  int svc_lp() const noexcept { return nranks_; }
  /// Minimum cross-LP message latency (the engine's uniform lookahead).
  Time floor() const noexcept { return floor_; }

  int shards() const noexcept { return se_.shards(); }

  /// Owner shard of `lp`; the service LP lives on shard 0.
  int shard_of(int lp) const {
    const auto i = static_cast<std::size_t>(lp);
    return i < owner_.size() ? owner_[i] : 0;
  }

  /// Lowest rank LP owned by shard `s` (the inverse of lp_owner_shard for
  /// contiguous blocks). Used to place per-shard mirror state — e.g. the
  /// deferral gate's shard views — on a canonical LP of that shard.
  int first_lp_of_shard(int s) const {
    const int S = shards();
    return static_cast<int>(
        (static_cast<std::int64_t>(s) * nranks_ + S - 1) / S);
  }

  Engine& engine_of(int lp) { return se_.shard(shard_of(lp)); }

  /// Runs `fn` in lp's shard's settle sweep at time t, *before* the sorted
  /// deliveries, in push order. No origin sequencing: only for callbacks
  /// that touch lp's own state and need no canonical order against other
  /// LPs' callbacks — the fabric's drain waiter, which wakes itself at its
  /// lane's last arrival instant; push order is the pushing LP's own
  /// execution order at any layout. Must be called from lp's shard with t
  /// in its future.
  void settle_at(int lp, Time t, InlineFn fn) {
    bucket_at(shard_of(lp), t).pre.push_back(Pre{lp, std::move(fn)});
  }

  /// Delivers `fn` into dst's settle bucket at absolute time t, clamped up
  /// to src-now + floor(). Call from code running on src's shard.
  void send_at(int src_lp, int dst_lp, Time t, InlineFn fn) {
    const int ss = shard_of(src_lp);
    const int ds = shard_of(dst_lp);
    const Time t_eff = std::max(t, se_.shard(ss).now() + floor_);
    const std::uint64_t oseq = next_oseq(src_lp);
    if (ss == ds) {
      bucket_at(ds, t_eff).entries.emplace_back(dst_lp, src_lp, oseq,
                                                std::move(fn));
    } else {
      shards_[ss].out.push_back(
          Staged{t_eff, ds, {dst_lp, src_lp, oseq, std::move(fn)}});
    }
  }

  /// Delivers `fn` one floor hop from now (the common control-plane case).
  void send(int src_lp, int dst_lp, InlineFn fn) {
    send_at(src_lp, dst_lp, engine_of(src_lp).now() + floor_,
            std::move(fn));
  }

  /// RPC: runs the Task produced by `work()` on dst's engine, then resumes
  /// the caller one floor hop after it completes. Must be awaited from a
  /// coroutine running on src's shard; the request pays a floor hop too.
  /// `work` is invoked on dst's shard, so it may touch dst-owned state.
  template <typename F>
  Task<void> call(int src_lp, int dst_lp, F work) {
    RpcWait w(engine_of(src_lp));
    send(src_lp, dst_lp, [this, src_lp, dst_lp, &w, work = std::move(work)]() mutable {
      engine_of(dst_lp).spawn(
          run_remote(this, src_lp, dst_lp, &w, std::move(work)));
    });
    while (!w.done) co_await w.cv.wait();
  }

  /// Messages delivered to `lp` so far (settle-sweep executions). Owner
  /// shard writes, anyone may read at a quiescent point — the per-LP event
  /// split bench/shard_scaling reports.
  std::uint64_t delivered(int lp) const {
    return delivered_[static_cast<std::size_t>(lp)];
  }
  std::uint64_t delivered_total() const {
    std::uint64_t sum = 0;
    for (std::uint64_t d : delivered_) sum += d;
    return sum;
  }

  /// Drops every staged cross-shard send and every queued settle bucket
  /// (teardown of an aborted run): entry destructors run, releasing pooled
  /// resources they hold. The engines' pending sweep events are dropped by
  /// ShardedEngine::abort_all alongside.
  void clear() {
    for (ShardState& st : shards_) {
      st.out.clear();
      st.buckets.clear();
      st.pool.clear();
    }
  }

 private:
  friend class ShardedEngine;

  struct Entry {
    int dst;
    int origin;
    std::uint64_t oseq;
    InlineFn fn;
  };
  /// A cross-shard send waiting in its source shard's outbox for the next
  /// round barrier.
  struct Staged {
    Time t;
    int shard;  // the destination LP's shard
    Entry entry;
  };
  struct Pre {
    int lp;
    InlineFn fn;
  };
  /// All deliveries for one (shard, t); exists iff a sweep is scheduled.
  struct Bucket {
    Time t = 0;
    std::vector<Pre> pre;       // unsequenced own-LP callbacks, push order
    std::vector<Entry> entries; // sorted by (dst, origin, oseq) at sweep
  };
  struct alignas(64) ShardState {
    std::vector<Bucket> buckets;  // ascending t
    std::vector<Bucket> pool;     // recycled buckets (vectors keep capacity)
    /// Cross-shard sends made by this shard since the last barrier. Only
    /// the shard's running thread appends; the coordinator empties it in
    /// exchange(), after the pool mutex has parked every producer.
    std::vector<Staged> out;
  };
  struct RpcWait {
    explicit RpcWait(Engine& eng) : cv(eng) {}
    bool done = false;
    Condition cv;
  };
  struct alignas(64) OriginSeq {
    std::uint64_t v = 0;
  };

  /// Next canonical sequence number for messages originated by `origin`.
  /// Called on origin's shard; assignment order equals origin's execution
  /// order, which is shard-count-invariant.
  std::uint64_t next_oseq(int origin) { return ++oseq_[origin].v; }

  /// Round-barrier exchange, called by ShardedEngine with every shard
  /// parked: moves each outbox's entries straight into their destination's
  /// settle bucket. No sort: the sweep's (dst, origin, oseq) order makes
  /// arrival order irrelevant. Returns the number of messages moved.
  std::size_t exchange() {
    std::size_t moved = 0;
    for (ShardState& src : shards_) {
      for (Staged& st : src.out) {
        assert(st.t > se_.shard(st.shard).now() &&
               "cross-shard delivery outside its destination's future");
        bucket_at(st.shard, st.t).entries.push_back(std::move(st.entry));
      }
      moved += src.out.size();
      src.out.clear();
    }
    return moved;
  }

  /// The settle bucket for (shard, t), creating it — and scheduling the
  /// shard's back-band sweep at t — on first touch. Buckets are kept
  /// sorted by t; inserts land at/near the back in practice (arrivals are
  /// roughly time-ordered), and the count of live buckets is the number of
  /// distinct pending delivery times on the shard, which stays small.
  Bucket& bucket_at(int shard, Time t) {
    ShardState& st = shards_[shard];
    auto it = std::lower_bound(
        st.buckets.begin(), st.buckets.end(), t,
        [](const Bucket& b, Time when) { return b.t < when; });
    if (it == st.buckets.end() || it->t != t) {
      Bucket b;
      if (!st.pool.empty()) {
        b = std::move(st.pool.back());
        st.pool.pop_back();
      }
      b.t = t;
      it = st.buckets.insert(it, std::move(b));
      se_.shard(shard).schedule_at_back(t, [this, shard] { sweep(shard); });
    }
    return *it;
  }

  template <typename F>
  static Task<void> run_remote(LpBus* bus, int src_lp, int dst_lp,
                               RpcWait* w, F work) {
    co_await work();
    bus->send(dst_lp, src_lp, [w] {
      w->done = true;
      w->cv.notify_all();
    });
  }

  /// The per-(shard, t) settle sweep: runs the pre-lane in push order, then
  /// sorts the deliveries by the canonical (dst LP, origin, oseq) key and
  /// runs them. Runs back-band, after every normal event at t; every
  /// delivery for t was in the bucket before the instant began.
  void sweep(int shard) {
    ShardState& st = shards_[shard];
    Engine& eng = se_.shard(shard);
    if (st.buckets.empty() || st.buckets.front().t != eng.now()) {
      return;  // bus cleared under a still-queued sweep (aborted run)
    }
    Bucket batch = std::move(st.buckets.front());
    st.buckets.erase(st.buckets.begin());
    for (Pre& p : batch.pre) {
      ++delivered_[static_cast<std::size_t>(p.lp)];
      p.fn();
    }
    if (batch.entries.size() > 1) {
      std::sort(batch.entries.begin(), batch.entries.end(),
                [](const Entry& a, const Entry& b) {
                  if (a.dst != b.dst) return a.dst < b.dst;
                  return a.origin != b.origin ? a.origin < b.origin
                                              : a.oseq < b.oseq;
                });
    }
    for (Entry& e : batch.entries) {
      ++delivered_[static_cast<std::size_t>(e.dst)];
      e.fn();
    }
    batch.pre.clear();
    batch.entries.clear();
    st.pool.push_back(std::move(batch));
  }

  ShardedEngine& se_;
  int nranks_;
  Time floor_;
  std::vector<ShardState> shards_;
  /// lp_owner_shard of each LP, the service LP last: shard_of runs twice
  /// per message, and a load is cheaper than the 64-bit division.
  std::vector<int> owner_;
  std::vector<OriginSeq> oseq_;
  std::vector<std::uint64_t> delivered_;
};

}  // namespace gbc::sim
