#pragma once

#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/lp_bus.hpp"
#include "sim/shard_engine.hpp"

namespace gbc::net::testing {

/// A fabric on a single-shard LP topology, wired the way
/// harness::SimCluster wires the full stack with one shard: every LP lives
/// on `eng`, so tests can spawn on it and run it directly.
struct NetWorld {
  explicit NetWorld(int n, NetConfig c = {})
      : cfg(c),
        eng(sharded.shard(0)),
        bus(sharded, n, cfg.floor_hop()),
        fabric(cfg, n, bus) {}
  // Settle buckets still holding wire flights (runs a test left unfinished)
  // hand them back to the fabric, so drop them while it is alive.
  ~NetWorld() { bus.clear(); }
  NetWorld(const NetWorld&) = delete;
  NetWorld& operator=(const NetWorld&) = delete;

  sim::ShardedEngine sharded{sim::ShardedEngine::Options{}};
  NetConfig cfg;
  sim::Engine& eng;
  sim::LpBus bus;
  Fabric fabric;
};

}  // namespace gbc::net::testing
