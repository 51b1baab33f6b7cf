#pragma once

#include <optional>

#include <memory>

#include "ckpt/checkpoint.hpp"
#include "harness/preset.hpp"
#include "mpi/minimpi.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/shard_engine.hpp"
#include "sim/trace.hpp"
#include "storage/storage.hpp"
#include "storage/tiers.hpp"

namespace gbc::harness {

/// Wiring knobs that are not part of the cluster shape itself.
struct SimClusterOptions {
  /// Structured protocol/staging trace (enable it before the run).
  sim::Trace* trace = nullptr;
  /// MPI delivery hooks (traffic observers).
  mpi::MpiHooks* hooks = nullptr;
  /// Instantiate the staging tier when `preset.tier.enabled`. Recovery's
  /// restart phase sets this false: a restarted job reloads images but its
  /// fresh local tiers start empty and play no further role.
  bool attach_tier = true;
};

/// The composition root: one simulated cluster, fully wired.
///
/// Owns the engine, fabric (with its connection manager), shared PFS,
/// optional node-local staging tier, MiniMPI and the C/R service, and
/// performs all the cross-layer plumbing (tier replica transport over the
/// fabric, trace fan-out, gate installation) in exactly one place. Every
/// driver — experiments, recovery replays, MTBF loops, tools, tests —
/// builds its stack through this class, so layer wiring changes happen
/// here and nowhere else.
///
/// ## LP layout (DESIGN.md §13)
///
/// The cluster is partitioned into logical processes connected by a
/// sim::LpBus: each MPI rank is one LP owned by shard rank*S/n (its
/// matcher, send pump, NIC horizon, connection mirrors and protocol-visible
/// counters all live there), and the *service LP* — connection manager,
/// shared storage, staging tier, checkpoint coordinator — is pinned to
/// shard 0. Every cross-LP interaction flows over the bus with latency
/// >= NetConfig::floor_hop(), the uniform conservative lookahead, and
/// arrivals are delivered by each shard's per-instant settle sweep in
/// canonical (dst LP, origin LP, origin sequence) order — so runs are
/// event-for-event identical at any shard and thread count. Drive a
/// cluster with run()/run_until()/abort(); running shard 0's engine
/// directly is only correct in the single-shard case.
///
/// Construction schedules no engine events; two clusters built from the
/// same preset are bit-identical starting states.
class SimCluster {
 public:
  explicit SimCluster(const ClusterPreset& preset,
                      const ckpt::CkptConfig& ckpt_cfg = {},
                      const SimClusterOptions& opts = {});
  ~SimCluster();
  SimCluster(const SimCluster&) = delete;
  SimCluster& operator=(const SimCluster&) = delete;

  const ClusterPreset& preset() const noexcept { return preset_; }
  int nranks() const noexcept { return preset_.nranks; }

  /// Shard 0: the *service* engine (storage, connection manager, checkpoint
  /// coordinator). Rank code runs on each rank's home engine — use
  /// mpi().rank(r).engine() or spawn_ranks().
  sim::Engine& engine() noexcept { return eng_; }
  sim::ShardedEngine& sharded() noexcept { return sharded_; }
  sim::LpBus& bus() noexcept { return bus_; }

  /// Runs the cluster to completion (all shards and outboxes drained).
  void run() { sharded_.run(); }
  /// Runs everything at or before t, then advances every shard clock to t.
  void run_until(sim::Time t) { sharded_.run_until(t); }
  /// Aborts every shard (failure injection teardown).
  void abort() {
    sharded_.abort_all();
    bus_.clear();
  }
  net::Fabric& fabric() noexcept { return fabric_; }
  net::ConnectionManager& connections() noexcept {
    return fabric_.connections();
  }
  storage::StorageSystem& shared_fs() noexcept { return fs_; }
  mpi::MiniMPI& mpi() noexcept { return mpi_; }
  ckpt::CheckpointService& checkpoints() noexcept { return ckpt_; }
  /// Null when the preset has no tier (or attach_tier was false).
  storage::TieredStore* tier() noexcept { return tier_ ? &*tier_ : nullptr; }

  /// Spawns `per_rank(rank_ctx)` for every rank on the rank's home engine
  /// (the usual launch pattern), and registers each for liveness tracking:
  /// the checkpoint service's periodic driver stops once every rank main
  /// has finished.
  template <typename F>
  void spawn_ranks(F&& per_rank) {
    for (int r = 0; r < preset_.nranks; ++r) {
      ckpt_.note_rank_started();
      mpi::RankCtx& rc = mpi_.rank(r);
      rc.engine().spawn(rank_main(per_rank(rc), r));
    }
  }

 private:
  static sim::ShardedEngine::Options engine_options(const ClusterPreset& p);
  /// Wraps one rank's main: on return, reports liveness to the service LP.
  sim::Task<void> rank_main(sim::Task<void> body, int rank);

  ClusterPreset preset_;
  sim::ShardedEngine sharded_;
  sim::Engine& eng_;  // = sharded_.shard(0), the service LP's engine
  sim::LpBus bus_;
  net::Fabric fabric_;
  storage::StorageSystem fs_;
  mpi::MiniMPI mpi_;
  ckpt::CheckpointService ckpt_;
  std::optional<storage::TieredStore> tier_;
};

}  // namespace gbc::harness
