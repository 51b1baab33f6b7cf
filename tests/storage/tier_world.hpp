#pragma once

#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/shard_engine.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "storage/storage.hpp"
#include "storage/tiers.hpp"

namespace gbc::storage::testing {

/// Copies `bytes` at `mbps` on `eng`'s clock: a stand-in interconnect for
/// replica and erasure-chunk transfers.
inline sim::Task<void> copy_at(sim::Engine& eng, Bytes bytes, double mbps) {
  co_await eng.delay(transfer_time(bytes, mbps));
}

/// A staging tier on a single-shard LP topology, wired the way
/// harness::SimCluster wires it with one shard: node i is LP i, every PFS
/// leg is an RPC to the service LP, and replica/chunk copies go over a fake
/// interconnect at 1250 MB/s unless the test passes its own transport. All
/// LPs live on `eng`, so tests can spawn on it and run it directly.
struct TierWorld {
  static constexpr sim::Time kFloor = sim::kMicrosecond;

  TierWorld(TierConfig tc, int nnodes, TieredStore::Transport transport = {})
      : eng(sharded.shard(0)),
        bus(sharded, nnodes, kFloor),
        pfs(eng, StorageConfig{}),
        tier(pfs, tc, nnodes, bus,
             transport ? std::move(transport)
                       : [this](int, int, Bytes b) {
                           return copy_at(eng, b, 1250.0);
                         }) {}
  TierWorld(const TierWorld&) = delete;
  TierWorld& operator=(const TierWorld&) = delete;

  sim::ShardedEngine sharded{sim::ShardedEngine::Options{}};
  sim::Engine& eng;
  sim::LpBus bus;
  StorageSystem pfs;
  TieredStore tier;
};

}  // namespace gbc::storage::testing
