#include "ckpt/checkpoint.hpp"

#include <algorithm>
#include <cassert>

#include "ckpt/protocol.hpp"
#include "storage/tiers.hpp"

namespace gbc::ckpt {

namespace {
int ilog2(int n) {
  int k = 0;
  while ((1 << k) < n) ++k;
  return k;
}
}  // namespace

sim::Time GlobalCheckpoint::max_individual_time() const {
  sim::Time m = 0;
  for (const auto& s : snapshots) m = std::max(m, s.resume_at - s.freeze_begin);
  return m;
}

double GlobalCheckpoint::mean_individual_time() const {
  if (snapshots.empty()) return 0;
  double sum = 0;
  for (const auto& s : snapshots) {
    sum += static_cast<double>(s.resume_at - s.freeze_begin);
  }
  return sum / static_cast<double>(snapshots.size());
}

double GlobalCheckpoint::storage_fraction() const {
  double down = 0, st = 0;
  for (const auto& s : snapshots) {
    down += static_cast<double>(s.resume_at - s.freeze_begin);
    st += static_cast<double>(s.storage_time);
  }
  return down > 0 ? st / down : 0;
}

// ---------------------------------------------------------------------------
// DeferralGate
// ---------------------------------------------------------------------------

CheckpointService::DeferralGate::DeferralGate(CheckpointService& svc)
    : svc_(svc) {
  sim::LpBus& bus = svc.mpi_.fabric().bus();
  const int n = svc.mpi_.nranks();
  views_.resize(bus.shards());
  for (int s = 0; s < static_cast<int>(views_.size()); ++s) {
    views_[s].done.assign(n, 0);
    const int anchor = std::min(bus.first_lp_of_shard(s), n - 1);
    views_[s].cv = std::make_unique<sim::Condition>(bus.engine_of(anchor));
  }
}

bool CheckpointService::DeferralGate::allowed(int a, int b) const {
  // The consistency rule (DESIGN.md): traffic may flow only between ranks
  // whose groups are on the same side of the recovery line. Evaluated
  // against the sender's shard view — the sender's shard is the caller.
  const ShardView& v = views_[svc_.mpi_.fabric().bus().shard_of(a)];
  if (!v.defer) return true;
  return v.done[a] == v.done[b];
}

sim::Condition& CheckpointService::DeferralGate::changed(int src) {
  return *views_[svc_.mpi_.fabric().bus().shard_of(src)].cv;
}

void CheckpointService::DeferralGate::notify() {
  sim::LpBus& bus = svc_.mpi_.fabric().bus();
  const bool defer = svc_.defer_active_;
  for (int s = 0; s < static_cast<int>(views_.size()); ++s) {
    const int anchor = std::min(bus.first_lp_of_shard(s), bus.nranks() - 1);
    // Every shard — including the service's own — receives the update one
    // bus hop out, so gate openings land at the same instant at any shard
    // count.
    bus.send(bus.svc_lp(), anchor,
             [this, s, defer, done = svc_.done_]() mutable {
               views_[s].done = std::move(done);
               views_[s].defer = defer;
               views_[s].cv->notify_all();
             });
  }
}

// ---------------------------------------------------------------------------
// CheckpointService
// ---------------------------------------------------------------------------

CheckpointService::CheckpointService(mpi::MiniMPI& mpi,
                                     storage::StorageSystem& fs,
                                     CkptConfig cfg)
    : eng_(mpi.engine()), mpi_(mpi), fs_(fs), cfg_(cfg), cycle_done_(eng_) {
  gate_ = std::make_unique<DeferralGate>(*this);
  done_.assign(mpi_.nranks(), 0);
  last_snapshot_at_.assign(mpi_.nranks(), -1);
  mpi_.set_gate(gate_.get());
}

CheckpointService::~CheckpointService() { mpi_.set_gate(nullptr); }

GroupPlan CheckpointService::plan_groups() const {
  const int n = mpi_.nranks();
  if (cfg_.dynamic_formation) {
    const int max_size = cfg_.group_size > 0 ? cfg_.group_size : n;
    return dynamic_plan(mpi_.fabric().traffic_matrix(), n, max_size);
  }
  return static_plan(n, cfg_.group_size);
}

namespace {
sim::Task<void> request_wrapper(CheckpointService* svc, Protocol p) {
  (void)co_await svc->checkpoint(p);
}
}  // namespace

void CheckpointService::request_at(sim::Time t, Protocol protocol) {
  eng_.schedule_at(t, [this, protocol] {
    eng_.spawn(request_wrapper(this, protocol));
  });
}

namespace {
sim::Task<void> periodic_driver(CheckpointService* svc, sim::Engine* eng,
                                sim::Time interval, Protocol p) {
  // Fixed *gap*, not fixed rate: the next request is issued one interval
  // after the previous cycle completes. A fixed rate shorter than the cycle
  // time would otherwise pile up requests and starve the application.
  for (;;) {
    // Stop once the application is done. When the harness reports rank
    // liveness, use it: rank mains run on their home shards' engines, so
    // this engine's live_processes() no longer sees them. Otherwise (direct
    // tests driving one engine) fall back to the process-count heuristic:
    // stop once only this driver remains. Background drain services are
    // detached processes too, but they are storage activity, not
    // application progress — counting them would keep the driver (and thus
    // the drain) alive forever once drains lag the checkpoint interval.
    if (svc->tracking_ranks()) {
      if (svc->live_ranks() <= 0) co_return;
    } else {
      const int background =
          svc->tier() ? svc->tier()->drain_tasks_running() : 0;
      if (eng->live_processes() <= 1 + background) co_return;
    }
    (void)co_await svc->checkpoint(p);
    co_await eng->delay(interval);
  }
}
}  // namespace

void CheckpointService::request_every(sim::Time first, sim::Time interval,
                                      Protocol protocol) {
  eng_.schedule_at(first, [this, interval, protocol] {
    if (tracking_ranks() ? live_ranks_ <= 0 : eng_.live_processes() <= 0) {
      return;
    }
    eng_.spawn(periodic_driver(this, &eng_, interval, protocol));
  });
}

Bytes CheckpointService::image_bytes_for(int rank, sim::Time now) const {
  const Bytes full = footprint(rank);
  if (!cfg_.incremental || last_snapshot_at_[rank] < 0) return full;
  const double elapsed = sim::to_seconds(now - last_snapshot_at_[rank]);
  const double dirty =
      cfg_.dirty_floor + cfg_.dirty_rate_per_second * elapsed;
  if (dirty >= 1.0) return full;
  return static_cast<Bytes>(static_cast<double>(full) * dirty);
}

sim::Task<GlobalCheckpoint> CheckpointService::checkpoint(Protocol protocol) {
  // Requests serialize: a second request issued mid-cycle waits its turn.
  while (cycle_active_) co_await cycle_done_.wait();
  cycle_active_ = true;
  if (trace_) {
    trace_->add(eng_.now(), -1, "cycle", std::string("begin ") +
                                             protocol_name(protocol));
  }
  const int n = mpi_.nranks();
  GlobalCheckpoint gc;
  gc.protocol = protocol;
  gc.requested_at = eng_.now();
  gc.snapshots.resize(n);
  for (int r = 0; r < n; ++r) gc.snapshots[r].rank = r;

  CycleContext ctx(*this, gc);
  co_await protocol_runner(protocol).run(ctx);

  // Thaws are one-way bus sends: the last rank only resumes one bus floor
  // after the runner returns. The cycle is complete when every rank has.
  sim::Time resumed = eng_.now();
  for (const auto& s : gc.snapshots) resumed = std::max(resumed, s.resume_at);
  if (resumed > eng_.now()) co_await eng_.delay_until(resumed);

  gc.completed_at = eng_.now();
  if (trace_) trace_->add(eng_.now(), -1, "cycle", "complete");
  history_.push_back(gc);
  cycle_active_ = false;
  cycle_done_.notify_all();
  co_return history_.back();
}

sim::Task<void> CheckpointService::snapshot_rank(int rank,
                                                 GlobalCheckpoint& gc,
                                                 int self_lp) {
  // The image write runs on the rank's own LP — the partitioned storage
  // server for its node — so the snapshot machinery (footprint/capture
  // reads, tier partition append, drain pause) touches only shard-local
  // state. The caller (root or a group coordinator) just awaits the RPC.
  sim::LpBus& bus = mpi_.fabric().bus();
  CheckpointService* self = this;
  GlobalCheckpoint* gcp = &gc;
  const int src = self_lp < 0 ? bus.svc_lp() : self_lp;
  co_await bus.call(src, rank, [self, rank, gcp] {
    return self->write_snapshot(rank, *gcp);
  });
}

sim::Task<void> CheckpointService::write_snapshot(int rank,
                                                  GlobalCheckpoint& gc) {
  sim::Engine& eng = mpi_.fabric().bus().engine_of(rank);
  auto& snap = gc.snapshots[rank];
  snap.image_bytes = image_bytes_for(rank, eng.now());
  if (capture_) snap.app_state = capture_(rank);
  snap.taken_at = eng.now();
  last_snapshot_at_[rank] = eng.now();
  const sim::Time t0 = eng.now();
  if (tier_ && tier_->enabled() && cfg_.use_tier) {
    // Multi-level staging: the frozen rank writes to its node-local tier
    // (plus the partner replica when enabled); the drain to the PFS runs on
    // in the background after the rank thaws.
    const bool pause = cfg_.pause_drain_during_snapshot;
    if (pause) tier_->pause_drain(rank);
    snap.image_id = co_await tier_->snapshot(rank, snap.image_bytes);
    if (pause) tier_->resume_drain(rank);
    const auto* img = tier_->find(snap.image_id);
    if (img && img->local) {
      // Erasure wins the label: the stripe survives strictly more failure
      // patterns than the single partner copy.
      snap.placement = img->ec.encoded_at >= 0 ? ImagePlacement::kLocalErasure
                       : img->partner >= 0     ? ImagePlacement::kLocalReplicated
                                               : ImagePlacement::kLocal;
      snap.replica_node = img->partner;
    } else {
      snap.placement = ImagePlacement::kPfs;  // capacity write-through
    }
  } else {
    // No staging tier: the image goes straight to the shared PFS, which is
    // root-owned — route the write there so PFS arbitration stays on one LP.
    sim::LpBus& bus = mpi_.fabric().bus();
    storage::StorageSystem* fs = &fs_;
    const Bytes bytes = snap.image_bytes;
    co_await bus.call(rank, bus.svc_lp(),
                      [fs, bytes] { return fs->write(bytes); });
  }
  snap.storage_time = eng.now() - t0;
}

// ---------------------------------------------------------------------------
// CycleContext — the service-side half of the ProtocolRunner seam. Defined
// here (not in a protocol TU) because it is the one class allowed to touch
// CheckpointService internals.
// ---------------------------------------------------------------------------

int CycleContext::self_lp() const noexcept {
  return self_lp_ < 0 ? svc_.mpi_.fabric().bus().svc_lp() : self_lp_;
}

sim::Engine& CycleContext::engine() noexcept {
  return self_lp_ < 0 ? svc_.eng_
                      : svc_.mpi_.fabric().bus().engine_of(self_lp_);
}
mpi::MiniMPI& CycleContext::mpi() noexcept { return svc_.mpi_; }
storage::StorageSystem& CycleContext::shared_fs() noexcept { return svc_.fs_; }
const CkptConfig& CycleContext::config() const noexcept { return svc_.cfg_; }
int CycleContext::nranks() const noexcept { return svc_.mpi_.nranks(); }

sim::Task<GroupPlan> CycleContext::gather_plan() {
  const CkptConfig& cfg = svc_.cfg_;
  const int n = svc_.mpi_.nranks();
  if (!cfg.dynamic_formation) co_return static_plan(n, cfg.group_size);
  // Traffic rows are rank-owned under the sharding discipline: fetch each
  // rank's row by RPC on its shard, then symmetrize service-side.
  sim::LpBus& bus = svc_.mpi_.fabric().bus();
  net::Fabric* fab = &svc_.mpi_.fabric();
  std::vector<std::int64_t> m(static_cast<std::size_t>(n) * n, 0);
  for (int src = 0; src < n; ++src) {
    std::int64_t* row = m.data() + static_cast<std::size_t>(src) * n;
    co_await bus.call(bus.svc_lp(), src,
                      [fab, src, row]() -> sim::Task<void> {
                        const auto r = fab->copy_traffic_row(src);
                        std::copy(r.begin(), r.end(), row);
                        co_return;
                      });
  }
  for (int a = 0; a < n; ++a) {
    for (int b = a + 1; b < n; ++b) {
      const std::int64_t sum = m[static_cast<std::size_t>(a) * n + b] +
                               m[static_cast<std::size_t>(b) * n + a];
      m[static_cast<std::size_t>(a) * n + b] = sum;
      m[static_cast<std::size_t>(b) * n + a] = sum;
    }
  }
  const int max_size = cfg.group_size > 0 ? cfg.group_size : n;
  co_return dynamic_plan(m, n, max_size);
}

void CycleContext::assign_groups(const GroupPlan& plan) {
  const int n = svc_.mpi_.nranks();
  svc_.group_of_.assign(n, 0);
  for (int g = 0; g < plan.size(); ++g) {
    for (int m : plan.groups[g]) svc_.group_of_[m] = g;
  }
  svc_.done_.assign(n, 0);
}

void CycleContext::set_defer_active(bool on) {
  svc_.defer_active_ = on;
  // Propagate to the shard views right away: defer=true with an all-zero
  // done vector is vacuously permissive, so flipping early is safe, while
  // flipping late could let a sender slip past the first group's line.
  svc_.gate_->notify();
}

void CycleContext::notify_gate() {
  assert(at_root());  // the gate fan-out sends from the service LP
  svc_.gate_->notify();
}

sim::Task<void> CycleContext::mark_group_on_recovery_line(
    const std::vector<int>& group) {
  // One coordinator→root message moves the whole group across the line and
  // triggers the gate broadcast from the LP that owns both. Merging the
  // marks with the notify keeps the line flip atomic in bus order: no
  // sender can observe half a group on the new side.
  sim::LpBus& bus = svc_.mpi_.fabric().bus();
  CheckpointService* svc = &svc_;
  const std::vector<int>* g = &group;
  co_await bus.call(self_lp(), bus.svc_lp(), [svc, g]() -> sim::Task<void> {
    for (int m : *g) {
      svc->done_[m] = 1;
      if (svc->trace_) {
        svc->trace_->add(svc->eng_.now(), m, "snapshot", "recovery line");
      }
    }
    svc->gate_->notify();
    co_return;
  });
}

sim::Task<void> CycleContext::freeze(int rank) {
  sim::LpBus& bus = svc_.mpi_.fabric().bus();
  mpi::MiniMPI* mpi = &svc_.mpi_;
  // The pause lands on the rank's shard one bus hop out; the RPC reply only
  // tells us it happened. Stamp the instant the rank actually stopped.
  const sim::Time pause_at = engine().now() + bus.floor();
  co_await bus.call(self_lp(), rank, [mpi, rank]() -> sim::Task<void> {
    mpi->rank(rank).freeze();
    co_return;
  });
  gc_.snapshots[rank].freeze_begin = pause_at;
  if (svc_.trace_) svc_.trace_->add(pause_at, rank, "freeze", "");
}

void CycleContext::thaw(int rank) {
  sim::LpBus& bus = svc_.mpi_.fabric().bus();
  mpi::MiniMPI* mpi = &svc_.mpi_;
  bus.send(self_lp(), rank, [mpi, rank] { mpi->rank(rank).thaw(); });
  const sim::Time resume_at = engine().now() + bus.floor();
  gc_.snapshots[rank].resume_at = resume_at;
  if (svc_.trace_) {
    // The resume lands one bus floor out; emit the trace event *at* that
    // instant so the trace stays append-ordered in time.
    sim::Trace* tr = svc_.trace_;
    engine().schedule_at(resume_at, [tr, resume_at, rank] {
      tr->add(resume_at, rank, "resume", "");
    });
  }
}

sim::Task<void> CycleContext::snapshot_rank(int rank) {
  return svc_.snapshot_rank(rank, gc_, self_lp_);
}

namespace {
/// Waits (by RPC on the peer's shard) for the peer's progress engine to
/// service a passive coordination request (Sec. 4.2/4.4).
sim::Task<void> await_peer_service(CheckpointService& svc, mpi::MiniMPI& mpi,
                                   int peer, int self_lp) {
  sim::LpBus& bus = mpi.fabric().bus();
  mpi::MiniMPI* m = &mpi;
  const bool ap = svc.config().async_progress;
  const sim::Time hi = svc.config().helper_interval;
  co_await bus.call(self_lp, peer, [m, peer, ap, hi] {
    return m->rank(peer).exec().await_service_point(ap, hi);
  });
}
}  // namespace

sim::Task<std::vector<int>> CycleContext::connected_peers(int m) {
  net::Fabric* fab = &svc_.mpi_.fabric();
  if (at_root()) co_return fab->connections().connected_peers(m);
  // The connection manager lives on the root LP; a coordinator asks for the
  // peer list by message.
  sim::LpBus& bus = fab->bus();
  std::vector<int> peers;
  std::vector<int>* out = &peers;
  co_await bus.call(self_lp_, bus.svc_lp(), [fab, m, out]() -> sim::Task<void> {
    *out = fab->connections().connected_peers(m);
    co_return;
  });
  co_return peers;
}

bool CycleContext::take_coordinator_failure(int coord) {
  if (svc_.abandon_coordinator_ != coord) return false;
  svc_.abandon_coordinator_ = -1;
  return true;
}

sim::Task<void> CycleContext::teardown_one(int m, int peer,
                                           bool peer_passive) {
  // A peer outside the checkpointing set participates passively: the request
  // first waits until the peer's progress engine services it (Sec. 4.2/4.4).
  if (peer_passive) {
    co_await await_peer_service(svc_, svc_.mpi_, peer, self_lp());
  }
  co_await engine().delay(svc_.cfg_.control_latency);  // disconnect RPC
  net::Fabric* fab = &svc_.mpi_.fabric();
  if (at_root()) {
    co_await fab->connections().disconnect(m, peer);
  } else {
    sim::LpBus& bus = fab->bus();
    co_await bus.call(self_lp_, bus.svc_lp(), [fab, m, peer] {
      return fab->connections().disconnect(m, peer);
    });
  }
}

sim::Task<void> CycleContext::rebuild_one(int m, int peer, bool peer_passive) {
  if (peer_passive) {
    co_await await_peer_service(svc_, svc_.mpi_, peer, self_lp());
  }
  co_await engine().delay(svc_.cfg_.control_latency);  // reconnect RPC
  net::Fabric* fab = &svc_.mpi_.fabric();
  if (at_root()) {
    co_await fab->connections().ensure_connected(m, peer);
  } else {
    sim::LpBus& bus = fab->bus();
    co_await bus.call(self_lp_, bus.svc_lp(), [fab, m, peer] {
      return fab->connections().ensure_connected(m, peer);
    });
  }
}

sim::Time CycleContext::fanout_latency(int width) const {
  return svc_.cfg_.control_latency * (ilog2(width) + 1);
}

void CycleContext::phase_begin(Phase p, int actor) {
  if (svc_.trace_) {
    svc_.trace_->add(engine().now(), actor,
                     std::string("phase/") + phase_name(p), "begin");
  }
}

void CycleContext::phase_end(Phase p, int actor) {
  if (svc_.trace_) {
    svc_.trace_->add(engine().now(), actor,
                     std::string("phase/") + phase_name(p), "end");
  }
}

}  // namespace gbc::ckpt
