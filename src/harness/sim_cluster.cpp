#include "harness/sim_cluster.hpp"

#include <stdexcept>
#include <utility>

namespace gbc::harness {

sim::ShardedEngine::Options SimCluster::engine_options(
    const ClusterPreset& p) {
  if (p.shards < 1 || p.shards > p.nranks) {
    throw std::invalid_argument(
        "SimCluster: preset.shards must be in [1, nranks]");
  }
  sim::ShardedEngine::Options o;
  o.shards = p.shards;
  o.threads = p.threads;
  if (p.shards == 1) return o;
  // Uniform conservative horizon: every cross-LP message (wire flight,
  // control hop, RPC leg) respects the bus floor, whichever shards its
  // endpoints live on.
  o.lookahead = p.net.floor_hop();
  if (o.lookahead <= 0) {
    throw std::invalid_argument(
        "SimCluster: sharded runs need per_message_overhead + wire_latency "
        "large enough for a positive lookahead floor");
  }
  return o;
}

SimCluster::SimCluster(const ClusterPreset& preset,
                       const ckpt::CkptConfig& ckpt_cfg,
                       const SimClusterOptions& opts)
    : preset_(preset),
      sharded_(engine_options(preset)),
      eng_(sharded_.shard(0)),
      bus_(sharded_, preset_.nranks, preset_.net.floor_hop()),
      fabric_(preset_.net, preset_.nranks, bus_),
      fs_(eng_, preset_.storage),
      mpi_(eng_, fabric_, preset_.mpi),
      ckpt_(mpi_, fs_, ckpt_cfg) {
  if (preset_.tier.enabled && opts.attach_tier) {
    tier_.emplace(fs_, preset_.tier, preset_.nranks, bus_,
                  [this](int src, int dst, storage::Bytes b) {
                    return fabric_.bulk_transfer(src, dst, b);
                  });
    tier_->set_trace(opts.trace);
    ckpt_.set_tier(&*tier_);
  }
  if (opts.trace) ckpt_.set_trace(opts.trace);
  if (opts.hooks) mpi_.set_hooks(opts.hooks);
}

SimCluster::~SimCluster() {
  // Drop whatever is still queued (aborted or partially-driven runs) while
  // every member is alive: queued-callback destructors recycle pooled
  // resources (wire flights) into the fabric's return stacks, which
  // ~Fabric then sweeps home.
  sharded_.abort_all();
  bus_.clear();
}

sim::Task<void> SimCluster::rank_main(sim::Task<void> body, int rank) {
  co_await std::move(body);
  ckpt::CheckpointService* svc = &ckpt_;
  bus_.send(rank, bus_.svc_lp(), [svc] { svc->note_rank_finished(); });
}

}  // namespace gbc::harness
