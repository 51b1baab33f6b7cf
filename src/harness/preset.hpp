#pragma once

#include "mpi/minimpi.hpp"
#include "net/fabric.hpp"
#include "storage/storage.hpp"
#include "storage/tiers.hpp"

namespace gbc::harness {

/// Everything needed to instantiate one simulated cluster.
struct ClusterPreset {
  int nranks = 32;
  /// DES shards for the run (sim::ShardedEngine). Each MPI rank is a
  /// logical process owned by shard rank*S/nranks (its matcher, send pump
  /// and NIC state run there); shard 0 additionally hosts the service LP
  /// (storage, connection manager, checkpoint coordinator). All cross-LP
  /// interaction flows over the sim::LpBus, whose settle sweeps deliver in
  /// a canonical order, so sharded SimCluster runs are event-for-event
  /// identical to serial ones (DESIGN.md §13). Must be in [1, nranks]. The
  /// topology knob lives in net.topology.
  int shards = 1;
  /// Worker threads driving the shards, clamped to [1, shards]; 1 runs all
  /// shards inline (identical results at any thread count).
  int threads = 1;
  storage::StorageConfig storage;
  /// Node-local staging tier (disabled by default: single-tier PFS model).
  storage::TierConfig tier;
  net::NetConfig net;
  mpi::MpiConfig mpi;
};

/// The paper's testbed: 32 compute nodes (one MPI process each, dual Xeon
/// 3.6 GHz, MT25208 HCAs) plus 4 PVFS2 storage nodes reached over IPoIB with
/// ~140 MB/s aggregate throughput (Figure 1).
inline ClusterPreset icpp07_cluster() {
  ClusterPreset p;
  p.nranks = 32;
  // Defaults of StorageConfig / NetConfig are calibrated to this testbed.
  return p;
}

}  // namespace gbc::harness
