#pragma once

#include <functional>
#include <utility>

#include "../net/net_test_util.hpp"
#include "mpi/minimpi.hpp"
#include "sim/task.hpp"

namespace gbc::mpi::testing {

/// One simulated job: a single-shard engine + fabric + MPI library, with a
/// helper to run a per-rank program to completion. Rank programs may
/// capture locals by reference: every coroutine frame completes inside
/// run_all().
struct MpiWorld : net::testing::NetWorld {
  MiniMPI mpi;

  explicit MpiWorld(int n, MpiConfig mc = {}, net::NetConfig nc = {})
      : NetWorld(n, nc), mpi(eng, fabric, mc) {}

  template <typename F>
  void run_all(F&& per_rank) {
    for (int r = 0; r < mpi.nranks(); ++r) {
      eng.spawn(per_rank(mpi.rank(r)));
    }
    eng.run();
  }
};

}  // namespace gbc::mpi::testing
