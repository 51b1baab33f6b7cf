// Per-rank state allocates nothing until a rank meets a partner, and then
// only flat per-partner records. This binary replaces the global operator
// new to count allocations in two places: building a 256-rank, 4-shard
// SimCluster with CommGroupBench and spawning its ranks (per rank), and a
// whole 20-iteration run of it, checkpoint included. The bounds sit below
// what node-based per-rank containers (a std::map of std::deque lanes, two
// deque-backed peer tables, a deque unexpected queue) cost here: 14.4
// allocations per rank to build and 14,630 for the run. Flat records read
// 8.4 and 12,838.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>

#include "harness/preset.hpp"
#include "harness/sim_cluster.hpp"
#include "sim/pool.hpp"
#include "workloads/microbench.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};

// Out of line: inlined into a new-expression's cleanup path, the free()
// below trips GCC's -Wmismatched-new-delete, which cannot see that the
// replacement operator new allocates with malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace gbc {
namespace {

constexpr int kRanks = 256;
constexpr std::uint64_t kIterations = 20;

struct Counts {
  std::uint64_t setup = 0;  // cluster + workload + spawned ranks
  std::uint64_t total = 0;  // setup plus the whole run
  int finished = 0;
};

Counts count_run() {
  harness::ClusterPreset p = harness::icpp07_cluster();
  p.nranks = kRanks;
  p.shards = 4;
  p.threads = 1;  // no worker pool: its threads allocate too
  workloads::CommGroupBenchConfig wcfg;
  wcfg.comm_group_size = 8;
  wcfg.compute_per_iter = 50 * sim::kMillisecond;
  wcfg.iterations = kIterations;
  wcfg.footprint_mib = 16.0;

  Counts c;
  const std::uint64_t start = g_allocs.load();
  harness::SimCluster cluster(p);
  auto wl = std::make_unique<workloads::CommGroupBench>(kRanks, wcfg);
  wl->setup(cluster.mpi());
  wl->attach(cluster.checkpoints());
  cluster.checkpoints().request_at(
      static_cast<sim::Time>(kIterations) * wcfg.compute_per_iter / 2,
      ckpt::Protocol::kGroupBased);
  int* finished = &c.finished;
  cluster.spawn_ranks([&](mpi::RankCtx& rank) {
    return [](workloads::Workload* w, mpi::RankCtx* rk,
              int* done) -> sim::Task<void> {
      co_await w->run_rank(*rk, {});
      ++*done;
    }(wl.get(), &rank, finished);
  });
  c.setup = g_allocs.load() - start;
  cluster.run();
  c.total = g_allocs.load() - start;
  return c;
}

TEST(SetupAlloc, RankStateIsFlatAndLazy) {
  const Counts c = count_run();
  EXPECT_EQ(c.finished, kRanks);
  const double per_rank = static_cast<double>(c.setup) / kRanks;
  std::printf("setup: %llu allocations, %.2f per rank; run: %llu in all\n",
              static_cast<unsigned long long>(c.setup), per_rank,
              static_cast<unsigned long long>(c.total));
#if GBC_POOLS_PASSTHROUGH
  // The run above still ran for the sanitizers; every pooled record is a
  // plain new here, so the counts cannot hold.
  GTEST_SKIP() << "pools are plain new/delete here";
#endif
  EXPECT_LE(per_rank, 10.0);
  EXPECT_LE(c.total, 13600u);
}

}  // namespace
}  // namespace gbc
