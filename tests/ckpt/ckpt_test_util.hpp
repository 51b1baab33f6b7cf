#pragma once

#include "ckpt/checkpoint.hpp"
#include "harness/sim_cluster.hpp"
#include "mpi/minimpi.hpp"
#include "net/fabric.hpp"
#include "sim/engine.hpp"
#include "sim/task.hpp"
#include "storage/storage.hpp"

namespace gbc::ckpt::testing {

/// Full simulated job for checkpoint tests, calibrated like the paper's
/// 32+4-node testbed. A thin veneer over the harness composition root
/// (harness::SimCluster) that keeps the historical flat member names the
/// test bodies use.
struct CkptWorld {
  harness::SimCluster cluster;
  sim::Engine& eng;
  net::Fabric& fabric;
  storage::StorageSystem& fs;
  mpi::MiniMPI& mpi;
  CheckpointService& ckpt;

  explicit CkptWorld(int n, CkptConfig cc = {}, mpi::MpiConfig mc = {},
                     storage::StorageConfig sc = {}, net::NetConfig nc = {})
      : cluster(make_preset(n, mc, sc, nc), cc),
        eng(cluster.engine()), fabric(cluster.fabric()),
        fs(cluster.shared_fs()), mpi(cluster.mpi()),
        ckpt(cluster.checkpoints()) {}

  template <typename F>
  void run_all(F&& per_rank) {
    cluster.spawn_ranks(per_rank);
    cluster.run();
  }

 private:
  static harness::ClusterPreset make_preset(int n, mpi::MpiConfig mc,
                                            storage::StorageConfig sc,
                                            net::NetConfig nc) {
    harness::ClusterPreset p;
    p.nranks = n;
    p.mpi = mc;
    p.storage = sc;
    p.net = nc;
    return p;
  }
};

}  // namespace gbc::ckpt::testing
